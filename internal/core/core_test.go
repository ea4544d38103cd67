package core_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/obs"
)

func build(t *testing.T, wire func(b *core.Builder)) *core.Sim {
	t.Helper()
	b := core.NewBuilder()
	wire(b)
	sim, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sim
}

func run(t *testing.T, s *core.Sim, n uint64) {
	t.Helper()
	if err := s.Run(n); err != nil {
		t.Fatalf("Run(%d): %v", n, err)
	}
}

func TestSourceToSinkTransfersEveryCycle(t *testing.T) {
	src := newSource("src")
	snk := newSink("snk", nil) // relies on default ack semantics
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(snk)
		b.Connect(src, "out", snk, "in")
	})
	run(t, sim, 5)
	want := []int{0, 1, 2, 3, 4}
	if len(snk.got) != len(want) {
		t.Fatalf("sink received %v, want %v", snk.got, want)
	}
	for i, v := range want {
		if snk.got[i] != v {
			t.Fatalf("sink received %v, want %v", snk.got, want)
		}
	}
	if len(src.sent) != 5 {
		t.Fatalf("source recorded %d sends, want 5", len(src.sent))
	}
}

func TestBackpressureRetriesUntilAcked(t *testing.T) {
	src := newSource("src")
	// Accept only on even cycles.
	snk := newSink("snk", func(cycle uint64, i int) bool { return cycle%2 == 0 })
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(snk)
		b.Connect(src, "out", snk, "in")
	})
	run(t, sim, 6)
	// Cycles 0,2,4 transfer; 1,3,5 nack.
	want := []int{0, 1, 2}
	if len(snk.got) != len(want) {
		t.Fatalf("sink received %v, want %v", snk.got, want)
	}
	for i, v := range want {
		if snk.got[i] != v {
			t.Fatalf("sink received %v, want %v", snk.got, want)
		}
	}
}

func TestCombinationalChainFlowsInOneCycle(t *testing.T) {
	src := newSource("src")
	g1 := newGate("g1")
	g2 := newGate("g2")
	g3 := newGate("g3")
	snk := newSink("snk", func(uint64, int) bool { return true })
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(g1)
		b.Add(g2)
		b.Add(g3)
		b.Add(snk)
		b.Connect(src, "out", g1, "in")
		b.Connect(g1, "out", g2, "in")
		b.Connect(g2, "out", g3, "in")
		b.Connect(g3, "out", snk, "in")
	})
	run(t, sim, 1)
	if len(snk.got) != 1 || snk.got[0] != 0 {
		t.Fatalf("zero-latency chain: sink received %v, want [0]", snk.got)
	}
	if g1.passed != 1 || g2.passed != 1 || g3.passed != 1 {
		t.Fatalf("gates passed %d/%d/%d, want 1/1/1", g1.passed, g2.passed, g3.passed)
	}
}

func TestRegisterPipelineLatencyAndBackpressure(t *testing.T) {
	src := newSource("src")
	r1 := newRegister("r1")
	r2 := newRegister("r2")
	snk := newSink("snk", func(uint64, int) bool { return true })
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(r1)
		b.Add(r2)
		b.Add(snk)
		b.Connect(src, "out", r1, "in")
		b.Connect(r1, "out", r2, "in")
		b.Connect(r2, "out", snk, "in")
	})
	run(t, sim, 10)
	// Two register stages: first value arrives after 2 full cycles, then
	// one per cycle: cycles 2..9 deliver values 0..7.
	if len(snk.got) != 8 {
		t.Fatalf("sink received %d values (%v), want 8", len(snk.got), snk.got)
	}
	for i, v := range snk.got {
		if v != i {
			t.Fatalf("sink received %v, want 0..7 in order", snk.got)
		}
	}
}

func TestPortFanoutWidthScalesBandwidth(t *testing.T) {
	src := newSource("src")
	s1 := newSink("s1", nil)
	s2 := newSink("s2", nil)
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(s1)
		b.Add(s2)
		b.Connect(src, "out", s1, "in")
		b.Connect(src, "out", s2, "in")
	})
	run(t, sim, 3)
	// Width-2 source sends next and next+1 each cycle... both acked, so
	// next advances by 2 per cycle.
	if len(s1.got) != 3 || len(s2.got) != 3 {
		t.Fatalf("fanout sinks received %v and %v, want 3 each", s1.got, s2.got)
	}
	for i := range s1.got {
		if s2.got[i] != s1.got[i]+1 {
			t.Fatalf("per-connection data: s1=%v s2=%v", s1.got, s2.got)
		}
	}
}

func TestMonotonicityViolationReported(t *testing.T) {
	src := newSource("src")
	v := newViolator("bad")
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(v)
		b.Connect(src, "out", v, "in")
	})
	err := sim.Step()
	var ce *core.ContractError
	if !errors.As(err, &ce) {
		t.Fatalf("Step error = %v, want *ContractError", err)
	}
	if !strings.Contains(ce.Error(), "ack") {
		t.Fatalf("error should mention the ack signal: %v", ce)
	}
}

func TestSignalWriteDuringCycleEndRejected(t *testing.T) {
	src := newSource("src")
	bad := newSink("bad", nil)
	bad.OnCycleEnd(func() { bad.in.Nack(0) }) //vetlse:ignore — deliberately violates the phase contract
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(bad)
		b.Connect(src, "out", bad, "in")
	})
	err := sim.Step()
	var ce *core.ContractError
	if !errors.As(err, &ce) {
		t.Fatalf("Step error = %v, want *ContractError", err)
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("duplicate instance name", func(t *testing.T) {
		b := core.NewBuilder()
		b.Add(newSource("x"))
		b.Add(newSink("x", nil))
		if _, err := b.Build(); err == nil {
			t.Fatal("Build accepted duplicate instance names")
		}
	})
	t.Run("unknown template", func(t *testing.T) {
		b := core.NewBuilder()
		if _, err := b.Instantiate("no.such.template", "x", nil); err == nil {
			t.Fatal("Instantiate accepted unknown template")
		}
	})
	t.Run("unknown port", func(t *testing.T) {
		b := core.NewBuilder()
		src := newSource("src")
		snk := newSink("snk", nil)
		b.Add(src)
		b.Add(snk)
		if err := b.Connect(src, "nope", snk, "in"); err == nil {
			t.Fatal("Connect accepted unknown port")
		}
	})
	t.Run("direction mismatch", func(t *testing.T) {
		b := core.NewBuilder()
		src := newSource("src")
		snk := newSink("snk", nil)
		b.Add(src)
		b.Add(snk)
		if err := b.Connect(snk, "in", src, "out"); err == nil {
			t.Fatal("Connect accepted In->Out wiring")
		}
	})
	t.Run("min width violated", func(t *testing.T) {
		b := core.NewBuilder()
		b.Add(newSource("src")) // out requires MinWidth 1
		if _, err := b.Build(); err == nil {
			t.Fatal("Build accepted unconnected required port")
		}
	})
	t.Run("max width violated", func(t *testing.T) {
		b := core.NewBuilder()
		src := newSource("src")
		g := newGate("g") // in is MaxWidth 1
		snk := newSink("snk", nil)
		b.Add(src)
		b.Add(g)
		b.Add(snk)
		b.Connect(src, "out", g, "in")
		if err := b.Connect(src, "out", g, "in"); err == nil {
			t.Fatal("Connect exceeded MaxWidth")
		}
		_ = snk
	})
}

func TestControlFnOverridesDefaults(t *testing.T) {
	// A sink whose port control refuses everything: the source should
	// never complete a transfer even though the default would accept.
	refuse := func(data, enable core.Status, v any) core.Status { return core.No }
	src := newSource("src")
	snk := &sink{}
	snk.Init("snk", snk)
	snk.in = snk.AddInPort("in", core.PortOpts{Control: refuse})
	snk.OnCycleEnd(func() {
		if _, ok := snk.in.TransferredData(0); ok {
			t.Error("transfer completed despite refusing control function")
		}
	})
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(snk)
		b.Connect(src, "out", snk, "in")
	})
	run(t, sim, 3)
	if len(src.sent) != 0 {
		t.Fatalf("source completed %d sends, want 0", len(src.sent))
	}
}

func TestDefaultEnableOverride(t *testing.T) {
	// A source that only drives data; DefaultEnable: No means its offers
	// are never firm, so nothing transfers.
	lazy := &source{}
	lazy.Init("lazy", lazy)
	lazy.out = lazy.AddOutPort("out", core.PortOpts{DefaultEnable: core.No})
	lazy.OnCycleStart(func() { lazy.out.Send(0, 7) })
	snk := newSink("snk", nil)
	sim := build(t, func(b *core.Builder) {
		b.Add(lazy)
		b.Add(snk)
		b.Connect(lazy, "out", snk, "in")
	})
	run(t, sim, 3)
	if len(snk.got) != 0 {
		t.Fatalf("sink received %v, want nothing", snk.got)
	}
}

func TestCompositeExportsWireToChildren(t *testing.T) {
	// A composite wrapping two register stages, exporting in/out.
	mk := func(b *core.Builder, name string) *core.Composite {
		c := &core.Composite{}
		c.Init(name, c)
		r1 := newRegister(core.Sub(name, "r1"))
		r2 := newRegister(core.Sub(name, "r2"))
		b.Add(r1)
		b.Add(r2)
		c.AddChild(r1)
		c.AddChild(r2)
		b.Connect(r1, "out", r2, "in")
		c.Export("in", r1.PortByName("in"))
		c.Export("out", r2.PortByName("out"))
		return c
	}
	src := newSource("src")
	snk := newSink("snk", func(uint64, int) bool { return true })
	var comp *core.Composite
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(snk)
		comp = mk(b, "pipe")
		b.Add(comp)
		b.Connect(src, "out", comp, "in")
		b.Connect(comp, "out", snk, "in")
	})
	if len(comp.Children()) != 2 {
		t.Fatalf("composite has %d children, want 2", len(comp.Children()))
	}
	run(t, sim, 6)
	if len(snk.got) != 4 {
		t.Fatalf("sink received %v, want 4 values (2-cycle latency)", snk.got)
	}
}

func TestRunUntilAndStats(t *testing.T) {
	src := newSource("src")
	snk := newSink("snk", nil)
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(snk)
		b.Connect(src, "out", snk, "in")
	})
	ok, err := sim.RunUntil(func(s *core.Sim) bool { return len(snk.got) >= 3 }, 100)
	if err != nil || !ok {
		t.Fatalf("RunUntil: ok=%v err=%v", ok, err)
	}
	if sim.Now() != 3 {
		t.Fatalf("RunUntil stopped at cycle %d, want 3", sim.Now())
	}
	var sb strings.Builder
	sim.Stats().Dump(&sb)
	_ = sb.String()
}

func TestTracerObservesResolutions(t *testing.T) {
	src := newSource("src")
	snk := newSink("snk", nil)
	var sb strings.Builder
	b := core.NewBuilder(core.WithTracer(&obs.TextTracer{W: &sb}))
	b.Add(src)
	b.Add(snk)
	b.Connect(src, "out", snk, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run(t, sim, 1)
	out := sb.String()
	for _, want := range []string{"cycle 0", "data=yes", "ack=yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestDeterministicRandPerInstance: an instance's stream depends only on
// the seed and its name — not on where it was assembled, and not on the
// other instances — and differs across names and across seeds.
func TestDeterministicRandPerInstance(t *testing.T) {
	// draws assembles a source and sink per name, in the order given, and
	// returns each source's first 1 000 draws by name.
	draws := func(seed int64, names ...string) map[string][]uint64 {
		b := core.NewBuilder(core.WithSeed(seed))
		srcs := make([]*source, len(names))
		for i, name := range names {
			srcs[i] = newSource(name)
			snk := newSink(name+"-snk", nil)
			b.Add(srcs[i])
			b.Add(snk)
			b.Connect(srcs[i], "out", snk, "in")
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out := make(map[string][]uint64, len(names))
		for i, src := range srcs {
			for k := 0; k < 1000; k++ {
				out[names[i]] = append(out[names[i]], src.Rand().Uint64())
			}
		}
		return out
	}
	first := draws(42, "src", "a", "b")
	switch {
	case !slices.Equal(first["src"], draws(42, "src", "a", "b")["src"]):
		t.Fatal("same seed and name gave different streams")
	case !slices.Equal(first["src"], draws(42, "a", "b", "src")["src"]):
		t.Fatal("the stream depends on where the instance was assembled")
	case slices.Equal(first["src"], first["a"]):
		t.Fatal("two names in one session share a stream")
	case slices.Equal(first["src"], draws(43, "src")["src"]):
		t.Fatal("two seeds gave one name the same stream")
	}
}
