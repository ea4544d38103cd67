package liberty_test

// sleep_test.go holds each rule of Base.Sleep to a test that a template
// breaking it fails: a sleeper whose state still changes without an input
// diverges from the reference, one whose skipped start would have offered
// fails the activity check, a sleep requested outside the end phase is a
// contract error, and a sleeping queue's occupancy histogram reads as the
// reference's through every reader.

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/obs"
	"liberty/internal/pcl"
)

// ticker offers a token every period cycles. It has no input, so only a
// full sweep would wake it: when sleeps is set it sleeps anyway, with its
// next offer pending.
type ticker struct {
	core.Base
	out    *core.Port
	period uint64
	sleeps bool
	next   uint64
}

func newTicker(name string, period uint64, sleeps bool) *ticker {
	k := &ticker{period: period, sleeps: sleeps}
	k.Init(name, k)
	k.Checkpoint(&k.next)
	k.out = k.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	k.OnCycleStart(func() {
		if k.Now() >= k.next {
			k.out.Send(0, int(k.Now()))
			k.out.Enable(0)
		}
		k.out.Idle()
	})
	k.OnCycleEnd(func() {
		if k.out.Transferred(0) {
			k.next = k.Now() + k.period
		}
		if k.sleeps {
			k.Sleep()
		}
	})
	k.MarkSequential()
	return k
}

// tickerProgram compiles a ticker feeding a sink.
func tickerProgram(t *testing.T, sleeps bool, opts ...core.BuildOption) *core.Program {
	t.Helper()
	prog, err := core.Compile(func(b *core.Builder) error {
		snk, err := pcl.NewSink("snk", nil)
		if err != nil {
			return err
		}
		k := newTicker("tick", 5, sleeps)
		b.Add(k)
		b.Add(snk)
		return b.Connect(k, "out", snk, "in")
	}, append(opts, core.WithSeed(1), core.WithMetrics())...)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSleepPendingOfferDiverges runs the ticker against the reference: a
// ticker that stays awake agrees cycle by cycle (its sink sleeps between
// tokens), one that sleeps with its next offer pending diverges at the
// offer it skips.
func TestSleepPendingOfferDiverges(t *testing.T) {
	for _, sleeps := range []bool{false, true} {
		ref := tickerProgram(t, sleeps, core.WithScheduler(core.SchedulerSequential))
		want, _ := play(t, ref, nil, false, 40, nil)
		got, sim := play(t, tickerProgram(t, sleeps), nil, false, 40, nil)
		c := diverges(want.status, got.status)
		asleep := map[string]uint64{}
		for _, im := range sim.Metrics().Instances() {
			asleep[im.Name] = im.Asleep
		}
		switch {
		case asleep["snk"] == 0:
			t.Fatalf("sleeps=%v: the sink never slept", sleeps)
		case sleeps && asleep["tick"] == 0:
			t.Fatal("the ticker never slept")
		case !sleeps && (c >= 0 || got.stats != want.stats):
			t.Fatalf("a ticker that stays awake diverges from the reference at cycle %d", c)
		case sleeps && c < 0:
			t.Fatal("a ticker that sleeps with an offer pending agrees with the reference")
		}
	}
}

// TestSleepCheckCatchesSkippedOffer runs a ticker that sleeps with an
// offer pending under the activity check: it fails the Step at that
// offer, naming the ticker.
func TestSleepCheckCatchesSkippedOffer(t *testing.T) {
	sim, err := tickerProgram(t, true, core.WithActivityCheck()).NewSim()
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Run(20)
	var ce *core.ContractError
	if !errors.As(err, &ce) || ce.Op != "activity check" || !strings.Contains(ce.Detail, `"tick" sleeps`) {
		t.Fatalf("Run = %v; want the activity check naming the sleeping ticker", err)
	}
}

// napReactor calls Sleep from its reactive handler.
type napReactor struct {
	core.Base
	in *core.Port
}

// TestSleepOutsideEndPhase holds Sleep to the cycle-end phase under
// both engines.
func TestSleepOutsideEndPhase(t *testing.T) {
	for _, kind := range []core.SchedulerKind{core.SchedulerSequential, core.SchedulerSparse} {
		prog, err := core.Compile(func(b *core.Builder) error {
			src, err := pcl.NewSource("src", nil)
			if err != nil {
				return err
			}
			r := &napReactor{}
			r.Init("nap", r)
			r.Checkpoint()
			r.in = r.AddInPort("in")
			r.OnReact(func() { r.Sleep() })
			b.Add(src)
			b.Add(r)
			return b.Connect(src, "out", r, "in")
		}, core.WithScheduler(kind))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := prog.NewSim()
		if err != nil {
			t.Fatal(err)
		}
		var ce *core.ContractError
		if err := sim.Step(); !errors.As(err, &ce) || ce.Op != "sleep" || ce.Where != "nap" {
			t.Fatalf("%v: Step = %v; want the sleep contract error at nap", kind, err)
		}
	}
}

// TestSleepingQueueHistogram reads a sleeping queue's occupancy histogram
// mid-sleep — through StatSet.Histogram, obs.WriteJSON, and a snapshot
// restored and run 100 cycles more — and demands the reference's.
func TestSleepingQueueHistogram(t *testing.T) {
	const spec = `instance src : pcl.source(rate = 0.3, count = 6);
instance q   : pcl.queue(capacity = 4);
instance snk : pcl.sink();
src.out -> q.in;
q.out   -> snk.in;
`
	compile := func(kind core.SchedulerKind) *core.Program {
		m := lssRow("sleepq", spec, nil, 0, pin{})
		prog, err := m.compile(core.WithScheduler(kind))
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	type reading struct {
		count         int64
		sum, min, max float64
		p50           float64
		doc           string
	}
	read := func(sim *core.Sim) reading {
		h := sim.Stats().Histogram("q.occupancy")
		var buf bytes.Buffer
		if err := obs.WriteJSON(&buf, sim); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Histograms json.RawMessage `json:"histograms"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return reading{h.Count(), h.Sum(), h.Min(), h.Max(), h.P50(), string(doc.Histograms)}
	}
	ref, eng := compile(core.SchedulerSequential), compile(core.SchedulerSparse)
	want := map[uint64]reading{}
	rs, err := ref.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	for rs.Now() < 300 {
		if err := rs.Step(); err != nil {
			t.Fatal(err)
		}
		want[rs.Now()] = read(rs)
	}
	es, err := eng.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	asleep := false
	for es.Now() < 200 {
		if err := es.Step(); err != nil {
			t.Fatal(err)
		}
		for _, im := range es.Metrics().Instances() {
			asleep = asleep || im.Name == "q" && im.Asleep > 0
		}
		if got := read(es); got != want[es.Now()] {
			t.Fatalf("cycle %d: the queue's occupancy reads %+v, the reference's %+v", es.Now(), got, want[es.Now()])
		}
	}
	if !asleep {
		t.Fatal("the queue never slept")
	}
	var snap bytes.Buffer
	if err := es.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	rest, err := eng.Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for rest.Now() < 300 {
		if err := rest.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := read(rest); got != want[300] {
		t.Fatalf("restored at 200 and run to 300, the queue's occupancy reads %+v, the reference's %+v", got, want[300])
	}
}
