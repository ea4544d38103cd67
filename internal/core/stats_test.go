package core

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// statInst declares one counter and one histogram in its constructor;
// its start handler runs obs, when set, once per cycle.
type statInst struct {
	Base
	c   *Counter
	h   *Histogram
	obs func()
}

func newStatInst(name string) *statInst {
	s := &statInst{}
	s.Init(name, s)
	s.Checkpoint()
	s.c = s.Counter("n")
	s.h = s.Histogram("lat")
	s.OnCycleStart(func() {
		if s.obs != nil {
			s.obs()
		}
	})
	return s
}

func buildStatSim(t testing.TB, names ...string) (*Sim, []*statInst) {
	t.Helper()
	b := NewBuilder()
	var insts []*statInst
	for _, n := range names {
		insts = append(insts, newStatInst(n))
		b.Add(insts[len(insts)-1])
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim, insts
}

func contractPanicOf(fn func()) (ce *ContractError) {
	defer func() { ce, _ = recover().(*ContractError) }()
	fn()
	return nil
}

// TestStatsDeclaredInConstructor: statistics exist from construction,
// resolve by full name (the instance name may itself hold dots), and
// cannot be declared once the instance is attached.
func TestStatsDeclaredInConstructor(t *testing.T) {
	sim, insts := buildStatSim(t, "net.r3.arb1", "b")
	st := sim.Stats()
	if got, want := strings.Join(st.Names(), " "), "b.lat b.n net.r3.arb1.lat net.r3.arb1.n"; got != want {
		t.Fatalf("Names before the first Step = %q, want %q", got, want)
	}
	if st.Counter("net.r3.arb1.n") != insts[0].c || st.Histogram("net.r3.arb1.lat") != insts[0].h {
		t.Fatal("full names do not resolve to the declared statistics")
	}
	for _, name := range []string{"net.r3.arb1", "net.r3.n", "nodot", "b.lat", "b.", ""} {
		if st.Counter(name) != nil {
			t.Errorf("Counter(%q) resolved", name)
		}
	}
	if again := insts[1].c; insts[1].findCounter("n") != again {
		t.Fatal("findCounter does not return the declared counter")
	}
	ce := contractPanicOf(func() { insts[1].Counter("late") })
	if ce == nil || ce.Where != "b.late" {
		t.Fatalf("Counter after attach: %v, want a contract error at b.late", ce)
	}
	if ce := contractPanicOf(func() { insts[1].Histogram("late") }); ce == nil {
		t.Fatal("Histogram after attach did not raise a contract error")
	}
	fresh := &statInst{}
	fresh.Init("x", fresh)
	if ce := contractPanicOf(func() { fresh.Counter("a.b") }); ce == nil {
		t.Fatal("a dotted statistic name was accepted")
	}
	if fresh.Counter("a") != fresh.Counter("a") {
		t.Fatal("declaring a name twice made two counters")
	}
}

// TestHistogramRejectsNonFinite: a NaN or infinite sample ends the Step
// with a contract error naming the histogram, and leaves it unpoisoned.
func TestHistogramRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sim, insts := buildStatSim(t, "q")
		insts[0].obs = func() { insts[0].h.Observe(3) }
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		insts[0].obs = func() { insts[0].h.Observe(bad) }
		err := sim.Step()
		var ce *ContractError
		if !errors.As(err, &ce) || ce.Where != "q.lat" || !strings.Contains(ce.Detail, "non-finite") {
			t.Fatalf("Observe(%v): Step = %v, want a contract error at q.lat", bad, err)
		}
		h := insts[0].h
		if h.Count() != 1 || h.Sum() != 3 || h.Min() != 3 || h.Max() != 3 || h.P99() != 3 {
			t.Fatalf("Observe(%v) changed the histogram: count %d sum %v min %v max %v",
				bad, h.Count(), h.Sum(), h.Min(), h.Max())
		}
	}
}

// refHist is the full 64-bucket accumulator the windowed Histogram must
// equal, with the quantile estimate written over the full layout.
type refHist struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

func (r *refHist) observe(v float64) {
	if r.count == 0 {
		r.min, r.max = v, v
	} else {
		r.min = math.Min(r.min, v)
		r.max = math.Max(r.max, v)
	}
	r.count++
	r.sum += v
	i := 0
	if v > 0 {
		i = min(max(math.Ilogb(v)-histMinExp+1, 0), histBuckets-1)
	}
	r.buckets[i]++
}

func (r *refHist) quantile(q float64) float64 {
	if r.count == 0 {
		return 0
	}
	if q <= 0 {
		return r.min
	}
	if q >= 1 {
		return r.max
	}
	rank := q * float64(r.count)
	var cum float64
	for i, n := range r.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := histBounds(i)
			lo = math.Max(lo, r.min)
			hi = math.Min(hi, r.max)
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(n)
		}
		cum = next
	}
	return r.max
}

// histSample is one decoded step: a sample v observed once, or, when
// zeros > 0, a run of that many zeros credited in bulk (observeZeros, as
// a sleeping owner's skipped cycle starts are).
type histSample struct {
	v     float64
	zeros int64
}

// histSamples decodes a sample sequence: each sample is a kind byte and
// a payload — zeros, negatives, tiny values below bucket 1, huge values
// past the last bucket, integer latencies, arbitrary finite floats and
// runs of zeros credited in bulk.
func histSamples(data []byte) []histSample {
	var out []histSample
	add := func(v float64) { out = append(out, histSample{v: v}) }
	for len(data) >= 2 {
		kind, x := data[0]%7, data[1]
		data = data[2:]
		switch kind {
		case 0:
			add(0)
		case 1:
			add(-float64(x) - 0.5)
		case 2:
			add(math.Ldexp(float64(x)+1, -30))
		case 3:
			add(math.Ldexp(float64(x)+1, 50))
		case 4:
			add(float64(x) * float64(x))
		case 5:
			if len(data) < 8 {
				return out
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e300 {
				add(v)
			}
		case 6:
			out = append(out, histSample{zeros: int64(x)*int64(x) + 1})
		}
	}
	return out
}

func checkHist(t *testing.T, what string, h *Histogram, r *refHist) {
	t.Helper()
	if h.Count() != r.count || h.Sum() != r.sum || h.Min() != r.min || h.Max() != r.max {
		t.Fatalf("%s: count/sum/min/max = %d/%v/%v/%v, want %d/%v/%v/%v", what,
			h.Count(), h.Sum(), h.Min(), h.Max(), r.count, r.sum, r.min, r.max)
	}
	if h.buckets() != r.buckets {
		t.Fatalf("%s: buckets\n%v, want\n%v", what, h.buckets(), r.buckets)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.95, 0.99, 1} {
		if got, want := h.Quantile(q), r.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: q%v = %v, want %v", what, q, got, want)
		}
	}
	if h.P50() != r.quantile(0.5) || h.P95() != r.quantile(0.95) || h.P99() != r.quantile(0.99) {
		t.Fatalf("%s: P50/P95/P99 disagree with the reference", what)
	}
}

// FuzzHistogram holds the windowed Histogram to the full 64-bucket
// accumulator: count, sum, extremes, the exported bucket array and every
// quantile, also across a snapshot's export and restore. A run of zeros
// credited in bulk must read as that many single observations of 0.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is under testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		sim, insts := buildStatSim(t, "h")
		var ref refHist
		for _, x := range histSamples(data) {
			if x.zeros == 0 {
				insts[0].h.Observe(x.v)
				ref.observe(x.v)
				continue
			}
			insts[0].h.observeZeros(x.zeros)
			for range x.zeros {
				ref.observe(0)
			}
			checkHist(t, "credited in bulk", insts[0].h, &ref)
		}
		checkHist(t, "observed", insts[0].h, &ref)
		counters, hists := sim.Stats().export()
		twin, tinsts := buildStatSim(t, "h")
		if err := twin.Stats().restore(counters, hists); err != nil {
			t.Fatal(err)
		}
		checkHist(t, "restored", tinsts[0].h, &ref)
	})
}
