package core_test

import (
	"context"
	"errors"
	"testing"

	core "liberty/internal/core"
)

// driver sends a datum on every out connection at cycle start and has no
// reactive handler; default control resolves its enables (mirroring data).
type driver struct {
	core.Base
	out *core.Port
}

func newDriver(name string) *driver {
	d := &driver{}
	d.Init(name, d)
	d.out = d.AddOutPort("out")
	d.OnCycleStart(func() {
		for i := 0; i < d.out.Width(); i++ {
			d.out.Send(i, i)
		}
	})
	return d
}

// acker accepts firm data reactively and optionally reports each react
// invocation to a shared observer.
type acker struct {
	core.Base
	in      *core.Port
	onReact func()
}

func newAcker(name string) *acker {
	a := &acker{}
	a.Init(name, a)
	a.in = a.AddInPort("in")
	a.OnReact(func() {
		if a.onReact != nil {
			a.onReact()
		}
		for i := 0; i < a.in.Width(); i++ {
			if a.in.DataStatus(i) == core.Yes && a.in.EnableStatus(i) == core.Yes {
				a.in.Ack(i)
			}
		}
	})
	return a
}

// deadEnd declares ports but no handlers; every one of its signals falls
// to default control.
type deadEnd struct {
	core.Base
}

func newDeadEnd(name string) *deadEnd {
	d := &deadEnd{}
	d.Init(name, d)
	d.AddInPort("in")
	d.AddOutPort("out")
	return d
}

// buildFanout assembles the golden 3-instance netlist: one driver fanning
// out to two ackers.
func buildFanout(t *testing.T, opts ...core.BuildOption) *core.Sim {
	t.Helper()
	b := core.NewBuilder(opts...)
	drv := newDriver("drv")
	b1 := newAcker("b1")
	b2 := newAcker("b2")
	b.Add(drv)
	b.Add(b1)
	b.Add(b2)
	b.Connect(drv, "out", b1, "in")
	b.Connect(drv, "out", b2, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestSchedulerMetricsGolden pins the exact per-cycle scheduler counts of
// the known fan-out netlist under the sequential scheduler.
//
// Each cycle: the driver's two Sends wake both ackers (2 wakes); the
// react-phase broadcast finds them already scheduled; the initial fixed
// point runs both (2 reacts, 1 iteration) but neither can ack yet (enable
// unresolved); default control then resolves the two enables (2 enable
// fallbacks), each re-waking and re-running one acker (2 wakes, 2 reacts,
// 2 iterations), which acks — so the ack round has nothing left to do.
func TestSchedulerMetricsGolden(t *testing.T) {
	const cycles = 5
	t.Run("sequential", func(t *testing.T) {
		sim := buildFanout(t, core.WithScheduler(core.SchedulerSequential), core.WithMetrics())
		if err := sim.Run(cycles); err != nil {
			t.Fatal(err)
		}
		m := sim.Metrics()
		if m == nil {
			t.Fatal("metrics enabled but nil")
		}
		if got := m.Cycles(); got != cycles {
			t.Errorf("cycles = %d, want %d", got, cycles)
		}
		if got := m.Wakes(); got != 4*cycles {
			t.Errorf("wakes = %d, want %d", got, 4*cycles)
		}
		if got := m.Reacts(); got != 4*cycles {
			t.Errorf("reacts = %d, want %d", got, 4*cycles)
		}
		if got := m.FixedPointIters(); got != 3*cycles {
			t.Errorf("fixed-point iters = %d, want %d", got, 3*cycles)
		}
		wantDefaults := map[core.SigKind]uint64{
			core.SigData:   0,
			core.SigEnable: 2 * cycles,
			core.SigAck:    0,
		}
		for k, want := range wantDefaults {
			if got := m.DefaultFallbacks(k); got != want {
				t.Errorf("default fallbacks[%s] = %d, want %d", k, got, want)
			}
			if got := m.CycleBreaks(k); got != 0 {
				t.Errorf("cycle breaks[%s] = %d, want 0", k, got)
			}
		}
		// Per-instance profile: each acker reacted twice per cycle,
		// the handler-less driver never.
		byName := map[string]core.InstanceMetric{}
		for _, im := range m.Instances() {
			byName[im.Name] = im
		}
		if got := byName["drv"].Reacts; got != 0 {
			t.Errorf("drv reacts = %d, want 0", got)
		}
		for _, n := range []string{"b1", "b2"} {
			if got := byName[n].Reacts; got != 2*cycles {
				t.Errorf("%s reacts = %d, want %d", n, got, 2*cycles)
			}
		}
	})
}

// TestSchedulerMetricsCycleBreaks pins default-dependency cycle
// accounting: two handler-less modules wired into a loop force one break
// per signal kind per cycle, after which the second connection defaults
// normally.
func TestSchedulerMetricsCycleBreaks(t *testing.T) {
	// Check mode: otherwise this handler-less loop's cluster closes from
	// cycle 2 on and the per-cycle counts collapse (see
	// TestSparseActivityGating).
	b := core.NewBuilder(core.WithMetrics(), core.WithActivityCheck())
	x := newDeadEnd("x")
	y := newDeadEnd("y")
	b.Add(x)
	b.Add(y)
	b.Connect(x, "out", y, "in")
	b.Connect(y, "out", x, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 3
	if err := sim.Run(cycles); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()
	for _, k := range []core.SigKind{core.SigData, core.SigEnable, core.SigAck} {
		if got := m.DefaultFallbacks(k); got != 2*cycles {
			t.Errorf("default fallbacks[%s] = %d, want %d", k, got, 2*cycles)
		}
		if got := m.CycleBreaks(k); got != 1*cycles {
			t.Errorf("cycle breaks[%s] = %d, want %d", k, got, cycles)
		}
	}
	if got := m.Wakes(); got != 0 {
		t.Errorf("wakes = %d, want 0 (no reactive handlers)", got)
	}
}

// TestMetricsDisabledByDefault: without WithMetrics the simulator carries
// no metrics and the run is unaffected.
func TestMetricsDisabledByDefault(t *testing.T) {
	sim := buildFanout(t)
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	if sim.Metrics() != nil {
		t.Fatal("metrics collected without WithMetrics")
	}
}

// TestHistogramQuantiles checks the fixed-bucket estimates stay within
// their bucket bounds and degenerate cases are exact.
func TestHistogramQuantiles(t *testing.T) {
	var h core.Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 || h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("count/min/max = %d/%v/%v", h.Count(), h.Min(), h.Max())
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("mean = %v, want 50.5", got)
	}
	// The true p50 (50) lives in bucket (32, 64]; p95 (95) and p99 (99)
	// in (64, 128] clamped to max.
	if p := h.P50(); p < 32 || p > 64 {
		t.Errorf("p50 = %v, want within (32, 64]", p)
	}
	if p := h.P95(); p < 64 || p > 100 {
		t.Errorf("p95 = %v, want within (64, 100]", p)
	}
	if p := h.P99(); p < 64 || p > 100 {
		t.Errorf("p99 = %v, want within (64, 100]", p)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want min", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want max", got)
	}

	// A single sample collapses every quantile to it exactly.
	var one core.Histogram
	one.Observe(5)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := one.Quantile(q); got != 5 {
			t.Errorf("single-sample q%v = %v, want 5", q, got)
		}
	}
}

// TestAnonymousHistogramObserveZeroAsleep: an anonymous histogram has no
// instance to sleep, so the declaration credits nothing and every read
// returns what was observed.
func TestAnonymousHistogramObserveZeroAsleep(t *testing.T) {
	var h core.Histogram
	h.ObserveZeroAsleep()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("empty: count/sum/mean = %d/%v/%v", h.Count(), h.Sum(), h.Mean())
	}
	h.Observe(3)
	h.Observe(0)
	if h.Count() != 2 || h.Sum() != 3 || h.Min() != 0 || h.Max() != 3 || h.Mean() != 1.5 {
		t.Fatalf("count/sum/min/max/mean = %d/%v/%v/%v/%v", h.Count(), h.Sum(), h.Min(), h.Max(), h.Mean())
	}
	if q := h.Quantile(1); q != 3 {
		t.Fatalf("q1 = %v, want 3", q)
	}
}

// TestHistogramConcurrentObserve: react handlers Observe from the
// stepping goroutine while a live metrics reader takes counts and
// quantiles from another, through Sim.View (the step mutex). Run with
// -race to enforce the safety claim.
func TestHistogramConcurrentObserve(t *testing.T) {
	var shared core.Histogram
	b := core.NewBuilder()
	drv := newDriver("drv")
	b.Add(drv)
	const fanout = 8
	for i := 0; i < fanout; i++ {
		a := newAcker(string(rune('a' + i)))
		v := float64(i)
		a.onReact = func() { shared.Observe(v) }
		b.Add(a)
		b.Connect(drv, "out", a, "in")
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				sim.View(func() {
					if shared.Count() > 0 && shared.Quantile(0.5) > fanout {
						t.Error("median above the largest sample")
					}
				})
			}
		}
	}()
	const cycles = 50
	err = sim.Run(cycles)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	// Every acker reacts at least twice per cycle (initial fixed point +
	// enable default), so the histogram saw all of them.
	if got := shared.Count(); got < 2*fanout*cycles {
		t.Fatalf("observed %d samples, want >= %d", got, 2*fanout*cycles)
	}
}

// TestRunContextCancel: a cancelled context stops the run on a cycle
// boundary and surfaces ctx.Err().
func TestRunContextCancel(t *testing.T) {
	sim := buildFanout(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sim.RunContext(ctx, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if sim.Now() != 0 {
		t.Fatalf("cancelled before first cycle but Now() = %d", sim.Now())
	}
	ok, err := sim.RunUntilContext(ctx, func(*core.Sim) bool { return false }, 100)
	if ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunUntilContext = %v/%v, want false/context.Canceled", ok, err)
	}
	if err := sim.RunContext(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if sim.Now() != 4 {
		t.Fatalf("Now() = %d, want 4", sim.Now())
	}
}
