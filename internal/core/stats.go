package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Counter is a statistics counter an instance declares in its
// constructor (Base.Counter). It is plain memory with one writer, the
// goroutine stepping the session; module code should only touch it from
// the once-per-cycle handlers (OnCycleStart/OnCycleEnd). A reader on
// another goroutine goes through Sim.View.
type Counter struct {
	v    int64
	name string   // the statistic's name within its instance
	next *Counter // the instance's previously declared counter
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the counter's current value.
func (c *Counter) Value() int64 { return c.v }

// Histogram bucket layout: bucket 0 collects non-positive (and tiny)
// samples; bucket i>0 covers the geometric range
// (2^(histMinExp+i-1), 2^(histMinExp+i)]; the last bucket absorbs
// overflow. 64 power-of-two buckets span ~1.5e-5 to ~1.4e14, which covers
// cycle counts, latencies and occupancies without configuration.
const (
	histBuckets = 64
	histMinExp  = -16
)

func histBucket(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	i := math.Ilogb(v) - histMinExp + 1
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

func histBounds(i int) (lo, hi float64) {
	if i == 0 {
		return math.Inf(-1), math.Ldexp(1, histMinExp)
	}
	return math.Ldexp(1, histMinExp+i-1), math.Ldexp(1, histMinExp+i)
}

// Histogram accumulates sample values and reports count, mean, min, max
// and fixed-bucket percentile estimates (quantiles are interpolated
// within power-of-two buckets, so they carry bucket-width error but need
// no per-sample storage). It stores only the buckets it has used: bucket
// 0 as a count of its own, and a window over the geometric buckets its
// samples reached. Like Counter it is plain single-writer memory,
// declared in the constructor (Base.Histogram); a zero Histogram is an
// anonymous one, ready to use.
type Histogram struct {
	count    int64
	sum      float64
	min, max float64
	low      int64 // bucket 0: non-positive and tiny samples
	lo       int32 // the geometric bucket win[0] counts
	// asleep (ObserveZeroAsleep): every cycle start the owner sleeps
	// through is a sample of 0, credited when the histogram is read or
	// the owner wakes; while it sleeps, since is the first such cycle not
	// yet credited.
	asleep bool
	win    []int64 // buckets lo .. lo+len(win)-1; nil until a sample lands above bucket 0
	name   string  // the statistic's name within its instance
	owner  *Base   // the declaring instance; nil for an anonymous histogram
	next   *Histogram
	since  uint64
}

// Observe records one sample. A NaN or infinite sample is a contract
// violation naming the histogram: it would poison the sum, the extremes
// and every quantile.
func (h *Histogram) Observe(v float64) {
	if !finite(v) {
		contractPanic("observe", h.where(), fmt.Sprintf("non-finite sample %v", v))
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		h.min = math.Min(h.min, v)
		h.max = math.Max(h.max, v)
	}
	h.count++
	h.sum += v
	if i := histBucket(v); i == 0 {
		h.low++
	} else {
		*h.bucket(i)++
	}
}

// observeZeros records n samples of 0, exactly as n calls of Observe(0)
// would: the sum stays, the rest moves in one step.
func (h *Histogram) observeZeros(n int64) {
	h.Observe(0)
	h.count += n - 1
	h.low += n - 1
}

// ObserveZeroAsleep declares, in the constructor, that the histogram's
// instance observes 0 into it from its cycle-start handler on every cycle
// it sleeps through (Base.Sleep) — a queue's occupancy while it is
// empty. The engine skips those calls; the samples are credited whenever
// the histogram is read, so every read — its accessors, StatSet.Each and
// what is built on it, snapshots — sees the counts, sum, extremes and
// buckets the handler calls would have left.
func (h *Histogram) ObserveZeroAsleep() { h.asleep = true }

// settle credits the zero samples of the cycle starts the owner has slept
// through since it fell asleep or the histogram was last read.
func (h *Histogram) settle() {
	if b := h.owner; h.asleep && b != nil && b.asleep { // anonymous: no instance sleeps
		h.creditTo(b.sim.startsDone())
	}
}

// creditTo credits a sleeping owner's skipped cycle starts before cycle
// end (check mode runs them instead).
func (h *Histogram) creditTo(end uint64) {
	if end > h.since && !h.owner.sim.actCheck {
		h.observeZeros(int64(end - h.since))
	}
	h.since = end
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (h *Histogram) where() string {
	if h.owner == nil {
		return "histogram"
	}
	return h.owner.name + "." + h.name
}

// bucket returns geometric bucket i's count, widening the window to
// cover it: upward by append (which leaves room for the next bucket up),
// downward by a copy.
func (h *Histogram) bucket(i int) *int64 {
	switch j := i - int(h.lo); {
	case h.win == nil:
		h.lo, h.win = int32(i), make([]int64, 1, 4)
	case j < 0:
		w := make([]int64, len(h.win)-j, cap(h.win)-j)
		copy(w[-j:], h.win)
		h.lo, h.win = int32(i), w
	case j >= len(h.win):
		h.win = append(h.win, make([]int64, j+1-len(h.win))...)
	}
	return &h.win[i-int(h.lo)]
}

// buckets expands the stored buckets to the full layout (the snapshot's).
func (h *Histogram) buckets() (b [histBuckets]int64) {
	h.settle()
	b[0] = h.low
	copy(b[h.lo:], h.win)
	return b
}

// setBuckets stores the full layout b, keeping the window its used
// geometric buckets span.
func (h *Histogram) setBuckets(b [histBuckets]int64) {
	h.low, h.lo, h.win = b[0], 0, nil
	first, last := 0, 0
	for i := 1; i < histBuckets; i++ {
		if b[i] != 0 {
			if first == 0 {
				first = i
			}
			last = i
		}
	}
	if first != 0 {
		h.lo, h.win = int32(first), append([]int64(nil), b[first:last+1]...)
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	h.settle()
	return h.count
}

// Mean returns the sample mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.settle(); h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.settle()
	return h.sum
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() float64 {
	h.settle()
	return h.min
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() float64 {
	h.settle()
	return h.max
}

// Quantile estimates the q'th quantile (0 ≤ q ≤ 1) from the bucket
// counts, interpolating linearly inside the containing bucket and
// clamping to the observed [min, max]. It returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.settle(); h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	if h.low > 0 && rank <= float64(h.low) {
		return h.interpolate(0, h.low, rank, 0)
	}
	cum := float64(h.low)
	for j, n := range h.win {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			return h.interpolate(int(h.lo)+j, n, rank, cum)
		}
		cum = next
	}
	return h.max
}

// interpolate places rank inside bucket i, which holds n samples above
// the cum below it.
func (h *Histogram) interpolate(i int, n int64, rank, cum float64) float64 {
	lo, hi := histBounds(i)
	lo = math.Max(lo, h.min)
	hi = math.Min(hi, h.max)
	if hi < lo {
		hi = lo
	}
	return lo + (hi-lo)*(rank-cum)/float64(n)
}

// P50 estimates the median.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 estimates the 95th percentile.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 estimates the 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// StatSet is a session's statistics: a view over the counters and
// histograms its instances declared, in the Program's order. It holds
// nothing of its own. A full name is the instance's name, a dot and the
// statistic's name ("net.r3.arb1.grants"); lookups split it at the last
// dot.
type StatSet struct {
	sim *Sim
}

// statOrder is the statistics of a netlist sorted by full name, a counter
// before a histogram of the same name: computed once per Program, at the
// first StatSet.Each, and shared by every session stamped from it.
type statOrder struct {
	names string // the full names, in declaration order
	refs  []statRef
}

// statRef is one statistic of a statOrder: names[off:end] is its full
// name, and it is the idx'th (newest first) counter or histogram of
// instance inst.
type statRef struct {
	off, end, inst, idx int32
	hist                bool
}

// orderStats computes the order of the statistics the instances declared.
func orderStats(instances []Instance) statOrder {
	n, size := 0, 0
	for _, inst := range instances {
		b := inst.base()
		for c := b.counters; c != nil; c = c.next {
			n, size = n+1, size+len(b.name)+1+len(c.name)
		}
		for h := b.hists; h != nil; h = h.next {
			n, size = n+1, size+len(b.name)+1+len(h.name)
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	o := statOrder{refs: make([]statRef, 0, n)}
	add := func(b *Base, name string, ref statRef) {
		ref.off = int32(sb.Len())
		sb.WriteString(b.name)
		sb.WriteByte('.')
		sb.WriteString(name)
		ref.end = int32(sb.Len())
		o.refs = append(o.refs, ref)
	}
	for i, inst := range instances {
		b := inst.base()
		idx := int32(0)
		for c := b.counters; c != nil; c = c.next {
			add(b, c.name, statRef{inst: int32(i), idx: idx})
			idx++
		}
		idx = 0
		for h := b.hists; h != nil; h = h.next {
			add(b, h.name, statRef{inst: int32(i), idx: idx, hist: true})
			idx++
		}
	}
	o.names = sb.String()
	slices.SortFunc(o.refs, func(a, b statRef) int {
		if c := strings.Compare(o.names[a.off:a.end], o.names[b.off:b.end]); c != 0 || a.hist == b.hist {
			return c
		}
		if !a.hist { // a counter before a histogram of the same name
			return -1
		}
		return 1
	})
	return o
}

// counterAt and histAt return an instance's idx'th statistic, newest
// first, or nil.
func (b *Base) counterAt(idx int32) *Counter {
	c := b.counters
	for ; c != nil && idx > 0; idx-- {
		c = c.next
	}
	return c
}

func (b *Base) histAt(idx int32) *Histogram {
	h := b.hists
	for ; h != nil && idx > 0; idx-- {
		h = h.next
	}
	return h
}

// order is the Program's statistics order, computed at the first read of
// any session. Every session declares the same statistics: they are in
// the structural fingerprint, which each stamp is held to.
func (s *StatSet) order() *statOrder {
	p := s.sim.prog
	p.statsOnce.Do(func() { p.stats = orderStats(s.sim.instances) })
	return &p.stats
}

// owner resolves a full statistic name to the declaring instance and the
// statistic's own name.
func (s *StatSet) owner(name string) (*Base, string) {
	i := strings.LastIndexByte(name, '.')
	if i < 0 {
		return nil, ""
	}
	inst := s.sim.byName[name[:i]]
	if inst == nil {
		return nil, ""
	}
	return inst.base(), name[i+1:]
}

// Counter returns the named counter, or nil when it does not exist.
func (s *StatSet) Counter(name string) *Counter {
	if b, stat := s.owner(name); b != nil {
		return b.findCounter(stat)
	}
	return nil
}

// Histogram returns the named histogram, or nil when it does not exist.
func (s *StatSet) Histogram(name string) *Histogram {
	if b, stat := s.owner(name); b != nil {
		return b.findHistogram(stat)
	}
	return nil
}

// CounterValue returns the named counter's value, or 0 when absent.
func (s *StatSet) CounterValue(name string) int64 {
	if c := s.Counter(name); c != nil {
		return c.Value()
	}
	return 0
}

// Each calls fn for every statistic, sorted by full name, with exactly
// one of c and h set. The order and the names are the Program's, computed
// once: after the first, a call allocates nothing.
func (s *StatSet) Each(fn func(name string, c *Counter, h *Histogram)) {
	o := s.order()
	for _, r := range o.refs {
		name := o.names[r.off:r.end]
		if b := s.sim.bases[r.inst]; r.hist {
			h := b.histAt(r.idx)
			h.settle()
			fn(name, nil, h)
		} else {
			fn(name, b.counterAt(r.idx), nil)
		}
	}
}

// Names returns all statistic names, sorted.
func (s *StatSet) Names() []string {
	var names []string
	s.Each(func(name string, _ *Counter, _ *Histogram) { names = append(names, name) })
	return names
}

// Dump writes all statistics to w in sorted order, one per line.
func (s *StatSet) Dump(w io.Writer) { s.DumpPrefix(w, "") }

// DumpPrefix writes the statistics whose names start with prefix.
func (s *StatSet) DumpPrefix(w io.Writer, prefix string) {
	s.Each(func(n string, c *Counter, h *Histogram) {
		switch {
		case !strings.HasPrefix(n, prefix):
		case c != nil:
			fmt.Fprintf(w, "%-48s %12d\n", n, c.Value())
		default:
			fmt.Fprintf(w, "%-48s count=%d mean=%.4f min=%.4f max=%.4f p50=%.4f p95=%.4f p99=%.4f\n",
				n, h.Count(), h.Mean(), h.Min(), h.Max(), h.P50(), h.P95(), h.P99())
		}
	})
}
