package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"liberty/internal/analysis"
	core "liberty/internal/core"
)

// buildRandomNetlistOpts assembles a pseudo-random layered netlist of
// sources, gates, registers and sinks, deterministically from seed, and
// returns the sinks so results can be compared across engines.
func buildRandomNetlistOpts(t *testing.T, seed int64, opts ...core.BuildOption) (*core.Sim, []*sink) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := core.NewBuilder(append(append([]core.BuildOption(nil), opts...), core.WithSeed(seed))...)

	nChains := 2 + rng.Intn(4)
	var sinks []*sink
	for c := 0; c < nChains; c++ {
		src := newSource(fmt.Sprintf("src%d", c))
		b.Add(src)
		var prev core.Instance = src
		prevPort := "out"
		depth := 1 + rng.Intn(5)
		for d := 0; d < depth; d++ {
			var stage core.Instance
			if rng.Intn(2) == 0 {
				stage = newGate(fmt.Sprintf("g%d_%d", c, d))
			} else {
				stage = newRegister(fmt.Sprintf("r%d_%d", c, d))
			}
			b.Add(stage)
			b.Connect(prev, prevPort, stage, "in")
			prev, prevPort = stage, "out"
		}
		mod := uint64(1 + rng.Intn(3))
		snk := newSink(fmt.Sprintf("snk%d", c), func(cycle uint64, i int) bool {
			return cycle%mod != 1
		})
		b.Add(snk)
		b.Connect(prev, prevPort, snk, "in")
		sinks = append(sinks, snk)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sim, sinks
}

// statusRecorder fingerprints every cycle: at OnCycleEnd it snapshots the
// three signal statuses of every connection, in id order. Two runs are
// bit-identical iff their recorders collect equal fingerprints.
type statusRecorder struct {
	sim    *core.Sim
	cycles []string
}

func (r *statusRecorder) OnCycleBegin(uint64)                             {}
func (r *statusRecorder) OnResolve(*core.Conn, core.SigKind, core.Status) {}
func (r *statusRecorder) Attach(s *core.Sim)                              { r.sim = s }

func (r *statusRecorder) OnCycleEnd(n uint64) {
	fp := ""
	for _, c := range r.sim.Conns() {
		var v any
		v, _ = c.Data()
		fp += fmt.Sprintf("%d:%s/%s/%s=%v;", c.ID(),
			c.Status(core.SigData), c.Status(core.SigEnable), c.Status(core.SigAck), v)
	}
	r.cycles = append(r.cycles, fp)
}

func runNetlistStatuses(t *testing.T, seed int64, cycles uint64, opts ...core.BuildOption) ([][]int, []string) {
	t.Helper()
	rec := &statusRecorder{}
	opts = append(opts, core.WithTracer(rec))
	sim, sinks := buildRandomNetlistOpts(t, seed, opts...)
	if err := sim.Run(cycles); err != nil {
		t.Fatalf("Run (seed=%d): %v", seed, err)
	}
	out := make([][]int, len(sinks))
	for i, s := range sinks {
		out[i] = s.got
	}
	return out, rec.cycles
}

// TestSequentialRunsAreReproducible re-runs the same netlist twice and
// demands identical results, the foundation for regression experiments.
func TestSequentialRunsAreReproducible(t *testing.T) {
	aOut, aFP := runNetlistStatuses(t, 12345, 100, core.WithScheduler(core.SchedulerSequential))
	bOut, bFP := runNetlistStatuses(t, 12345, 100, core.WithScheduler(core.SchedulerSequential))
	if !reflect.DeepEqual(aOut, bOut) || !reflect.DeepEqual(aFP, bFP) {
		t.Fatal("identical seeds produced different results")
	}
}

// TestLevelizedMatchesSequential is the engine's confluence property:
// its static sweep and residue round must produce per-cycle signal
// statuses bit-identical to the reference's scanner on arbitrary
// netlists. (The recorder is a tracer, so every cluster stays open;
// closing is held to the reference in sparse_test.go and the root
// differential suite.)
func TestLevelizedMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		seqOut, seqFP := runNetlistStatuses(t, seed, 50, core.WithScheduler(core.SchedulerSequential))
		out, fp := runNetlistStatuses(t, seed, 50)
		if !reflect.DeepEqual(seqOut, out) {
			t.Logf("seed=%d: sink outputs diverge: reference=%v engine=%v", seed, seqOut, out)
			return false
		}
		if !reflect.DeepEqual(seqFP, fp) {
			t.Logf("seed=%d: cycle status fingerprints diverge", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleInfoAcyclic: the fan-out netlist has no cycles, so the
// whole netlist lands in the static sweep and nothing in the residue.
func TestScheduleInfoAcyclic(t *testing.T) {
	sim := buildFanout(t)
	info := sim.Schedule()
	if info == nil {
		t.Fatal("Schedule() = nil under the engine")
	}
	if sim.Scheduler() != core.SchedulerSparse {
		t.Errorf("Scheduler() = %v, want sparse", sim.Scheduler())
	}
	if info.Modules != 3 || info.SCCs != 3 {
		t.Errorf("modules/SCCs = %d/%d, want 3/3", info.Modules, info.SCCs)
	}
	if info.CyclicSCCs != 0 || len(info.BreakSites) != 0 {
		t.Errorf("cyclic SCCs = %d, break sites = %v, want none", info.CyclicSCCs, info.BreakSites)
	}
	if info.SweepConns != 2 || info.ResidueConns != 0 {
		t.Errorf("fwd sweep/residue = %d/%d, want 2/0", info.SweepConns, info.ResidueConns)
	}
	if info.AckSweepConns != 2 || info.AckResidueConns != 0 {
		t.Errorf("ack sweep/residue = %d/%d, want 2/0", info.AckSweepConns, info.AckResidueConns)
	}
	if info.ForwardLevels != 1 || info.AckLevels != 1 {
		t.Errorf("levels fwd/ack = %d/%d, want 1/1", info.ForwardLevels, info.AckLevels)
	}
}

// TestScheduleInfoCyclic: two modules wired into a loop form one cyclic
// SCC; all connections fall into the residue and the break site is the
// loop's lowest-id connection.
func TestScheduleInfoCyclic(t *testing.T) {
	b := core.NewBuilder() // default = the engine
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
	info := sim.Schedule()
	if info == nil {
		t.Fatal("Schedule() = nil under the default")
	}
	if info.SCCs != 1 || info.CyclicSCCs != 1 || info.LargestSCC != 2 {
		t.Errorf("SCCs/cyclic/largest = %d/%d/%d, want 1/1/2",
			info.SCCs, info.CyclicSCCs, info.LargestSCC)
	}
	if info.ResidueConns != 2 || info.AckResidueConns != 2 {
		t.Errorf("residue fwd/ack = %d/%d, want 2/2", info.ResidueConns, info.AckResidueConns)
	}
	if info.SweepConns != 0 || info.AckSweepConns != 0 {
		t.Errorf("sweep fwd/ack = %d/%d, want 0/0", info.SweepConns, info.AckSweepConns)
	}
	if len(info.BreakSites) != 1 {
		t.Fatalf("break sites = %v, want exactly one", info.BreakSites)
	}
	if want := sim.Conns()[0].String(); info.BreakSites[0] != want {
		t.Errorf("break site = %q, want lowest-id loop conn %q", info.BreakSites[0], want)
	}
}

// TestMarkedRingCut: the schedule, the cluster plan and LSE002 read one
// dependency graph, in which a MarkSequential instance is a node per
// port. A ring of two handler-less modules is one cyclic SCC broken at
// its lowest-id conn; marking either module leaves no cycle, and marking
// both also puts each module's in and out conns in different clusters
// (with one mark, the unmarked module still joins them).
func TestMarkedRingCut(t *testing.T) {
	for _, tc := range []struct {
		marks    string // which of x, y are marked
		cyclic   int
		clusters string
	}{
		{"", 1, "[2]"},
		{"x", 0, "[2]"},
		{"xy", 0, "[1 1]"},
	} {
		b := core.NewBuilder()
		x, y := newDeadEnd("x"), newDeadEnd("y")
		if strings.Contains(tc.marks, "x") {
			x.MarkSequential()
		}
		if strings.Contains(tc.marks, "y") {
			y.MarkSequential()
		}
		b.Add(x)
		b.Add(y)
		b.Connect(x, "out", y, "in")
		b.Connect(y, "out", x, "in")
		sim, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		info, n := sim.Schedule(), len(sim.Conns())
		if info.CyclicSCCs != tc.cyclic || len(info.BreakSites) != tc.cyclic {
			t.Errorf("marks %q: %d cyclic SCCs, break sites %v, want %d", tc.marks, info.CyclicSCCs, info.BreakSites, tc.cyclic)
		}
		if tc.cyclic == 1 && info.BreakSites[0] != sim.Conns()[0].String() {
			t.Errorf("break site = %q, want the lowest-id conn %q", info.BreakSites[0], sim.Conns()[0])
		}
		if info.ResidueConns != tc.cyclic*n || info.AckResidueConns != tc.cyclic*n {
			t.Errorf("marks %q: residue %d/%d (fwd/ack), want %d", tc.marks, info.ResidueConns, info.AckResidueConns, tc.cyclic*n)
		}
		if got := fmt.Sprint(info.ClusterSizes); got != tc.clusters {
			t.Errorf("marks %q: cluster sizes %s, want %s", tc.marks, got, tc.clusters)
		}
		lse002 := 0
		for _, d := range analysis.AnalyzeSim(sim).Diags {
			if d.Code == "LSE002" {
				lse002++
			}
		}
		if lse002 != tc.cyclic {
			t.Errorf("marks %q: %d LSE002, want %d", tc.marks, lse002, tc.cyclic)
		}
		// A marked instance is a member of one acyclic SCC per port.
		inX := 0
		for _, c := range sim.SCCs() {
			for _, m := range c.Members {
				if m == core.Instance(x) {
					inX++
				}
			}
		}
		if want := map[bool]int{false: 1, true: 2}[tc.marks != ""]; inX != want {
			t.Errorf("marks %q: x is a member of %d SCCs, want %d", tc.marks, inX, want)
		}
		sim.Close()
	}
}

// TestScheduleNilForLegacySchedulers: the reference carries no static
// schedule.
func TestScheduleNilForLegacySchedulers(t *testing.T) {
	seq := buildFanout(t, core.WithScheduler(core.SchedulerSequential))
	if seq.Schedule() != nil {
		t.Error("sequential scheduler reports a static schedule")
	}
	if seq.Scheduler() != core.SchedulerSequential {
		t.Errorf("sequential resolved to %v", seq.Scheduler())
	}
}

// TestLevelizedMetricsGolden pins the engine's counts on the golden
// fan-out netlist: same wakes, reacts and enable fallbacks as the
// reference (TestSchedulerMetricsGolden), but zero fixed-point
// iterations — the netlist is acyclic, so every default lands in the
// static sweep. The driver offers data every cycle, so its cluster never
// closes and the per-cycle counts are exact.
func TestLevelizedMetricsGolden(t *testing.T) {
	const cycles = 5
	sim := buildFanout(t, core.WithMetrics())
	if err := sim.Run(cycles); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()
	if got := m.Wakes(); got != 4*cycles {
		t.Errorf("wakes = %d, want %d", got, 4*cycles)
	}
	if got := m.Reacts(); got != 4*cycles {
		t.Errorf("reacts = %d, want %d", got, 4*cycles)
	}
	if got := m.FixedPointIters(); got != 0 {
		t.Errorf("fixed-point iters = %d, want 0 on an acyclic netlist", got)
	}
	if got := m.DefaultFallbacks(core.SigEnable); got != 2*cycles {
		t.Errorf("enable fallbacks = %d, want %d", got, 2*cycles)
	}
	for _, k := range []core.SigKind{core.SigData, core.SigEnable, core.SigAck} {
		if got := m.CycleBreaks(k); got != 0 {
			t.Errorf("cycle breaks[%s] = %d, want 0", k, got)
		}
	}
}

// TestLevelizedResidueIters: the two-module loop is all residue, which the
// engine resolves with the reference's own default round, so its
// fixed-point iterations and cycle breaks equal the reference's — one
// break per kind per cycle. No start handler reaches the loop, so its
// cluster would close from cycle 2 on; check mode evaluates it every cycle.
func TestLevelizedResidueIters(t *testing.T) {
	const cycles = 3
	run := func(opts ...core.BuildOption) *core.Metrics {
		b := core.NewBuilder(append([]core.BuildOption{core.WithMetrics()}, opts...)...)
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
		if err := sim.Run(cycles); err != nil {
			t.Fatal(err)
		}
		return sim.Metrics()
	}
	ref := run(core.WithScheduler(core.SchedulerSequential))
	m := run(core.WithActivityCheck())
	if got, want := m.FixedPointIters(), ref.FixedPointIters(); got != want {
		t.Errorf("fixed-point iters = %d, reference %d", got, want)
	}
	for _, k := range []core.SigKind{core.SigData, core.SigEnable, core.SigAck} {
		if got, want := m.CycleBreaks(k), ref.CycleBreaks(k); got != want || got != cycles {
			t.Errorf("cycle breaks[%s] = %d, reference %d, want %d", k, got, want, cycles)
		}
	}
}
