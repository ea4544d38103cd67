package liberty_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/systems"
	"liberty/lse"
)

// TestClusterPlanPaperModels pins the combinational clusters of the two
// models the activity numbers are quoted on: the 4x4 mesh is one cluster
// per router (a queue.out boundary, a route, an arbiter and a link.in or
// sink.in boundary per port: 35, 24 or 15 conns for 5, 4 or 3 ports) plus
// one single-conn cluster per router input, and the sensor network is one
// cluster around the shared channel plus one per node's front end. In the
// sensor network spec every cluster is closable, its clock gates' too.
func TestClusterPlanPaperModels(t *testing.T) {
	src, err := os.ReadFile("specs/mesh.lss")
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := lse.CompileLSS(string(src))
	if err != nil {
		t.Fatal(err)
	}
	info := mesh.Schedule()
	sizes := map[int]int{}
	for _, n := range info.ClusterSizes {
		sizes[n]++
	}
	if info.Clusters != 80 || info.ClosableClusters != 80 || fmt.Sprint(sizes) != "map[1:64 15:4 24:8 35:4]" {
		t.Errorf("mesh.lss: %d clusters (%d closable) of sizes %v, want 80 (16 routers: 4x35, 8x24, 4x15; 64 single conns)",
			info.Clusters, info.ClosableClusters, sizes)
	}
	if info.AlwaysActive != 128 || len(info.GlueInstances) != 0 {
		t.Errorf("mesh.lss: %d seeds, glue %v, want 128, none", info.AlwaysActive, info.GlueInstances)
	}

	src, err = os.ReadFile("specs/sensornet.lss")
	if err != nil {
		t.Fatal(err)
	}
	gated, err := lse.CompileLSS(string(src))
	if err != nil {
		t.Fatal(err)
	}
	info = gated.Schedule()
	if info.NoInputClusters != 0 || info.ClosableClusters != info.Clusters {
		t.Errorf("sensornet.lss: %d never-closing, %d of %d clusters closable, want 0 and all",
			info.NoInputClusters, info.ClosableClusters, info.Clusters)
	}

	b := core.NewBuilder()
	if _, err := systems.BuildSensorNet(b, "sn", 64, 20, 40); err != nil {
		t.Fatal(err)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The marked channel cuts the shared 129-conn cluster in two: the 64
	// transmit conns on one side, the 65 receive conns (64 nodes and the
	// base station) on the other.
	info = sim.Schedule()
	if info.Clusters != 66 || info.LargestCluster != 65 {
		t.Errorf("sensornet(64): %d clusters, largest %d conns, want 66 and 65", info.Clusters, info.LargestCluster)
	}
	if len(info.GlueInstances) != 0 {
		t.Errorf("sensornet(64): largest cluster glued by %v, want none", info.GlueInstances)
	}

	// Figures 2(a) and 2(c) at the differential suite's sizes and at the
	// benchmark's: the marked trace cores and directory controllers cut
	// every gp{i} <-> l1_{i} and controller <-> network loop, so nothing
	// is left to the cyclic residue and no instance glues a cluster.
	for _, c := range []struct {
		name              string
		cfg               systems.CMPCfg
		clusters, largest int
	}{
		{"fig2a 2x2", systems.CMPCfg{W: 2, H: 2, RefsPer: 60, Seed: 1}, 24, 17},
		{"fig2c 4x2 torus", systems.CMPCfg{W: 4, H: 2, Torus: true, RefsPer: 40, Seed: 2}, 64, 37},
		{"fig2a 4x4 (bench)", benchCMPs[0].cfg, 112, 37},
		{"fig2c 4x2 torus (bench)", benchCMPs[1].cfg, 64, 37},
	} {
		b := core.NewBuilder()
		if _, err := systems.BuildCMP(b, "cmp", c.cfg); err != nil {
			t.Fatal(err)
		}
		sim, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		info := sim.Schedule()
		if info.CyclicSCCs != 0 || info.ResidueConns != 0 || info.AckResidueConns != 0 {
			t.Errorf("%s: %d cyclic SCCs, residue %d/%d (fwd/ack), want none", c.name, info.CyclicSCCs, info.ResidueConns, info.AckResidueConns)
		}
		if info.Clusters != c.clusters || info.LargestCluster != c.largest || len(info.GlueInstances) != 0 {
			t.Errorf("%s: %d clusters, largest %d conns, glue %v, want %d, %d, none",
				c.name, info.Clusters, info.LargestCluster, info.GlueInstances, c.clusters, c.largest)
		}
	}
}

// stepHashes steps sim n cycles and returns the status hash after each.
func stepHashes(t *testing.T, sim *core.Sim, n int) []uint64 {
	t.Helper()
	var out []uint64
	for i := 0; i < n; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		out = append(out, statusHash(sim))
	}
	return out
}

func mustCompile(t *testing.T, assemble func(*core.Builder) error, opts ...core.BuildOption) *core.Program {
	t.Helper()
	p, err := core.Compile(assemble, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestActivityLifecycle walks the events that drop idle signatures — a
// snapshot restored into the same and the other engine, and
// InvalidateActivity — on the checkpoint recipe (sources, an arbiter, a
// queue, a delay line), with clusters closing: every cycle's statuses and
// the final statistics stay the sequential oracle's.
func TestActivityLifecycle(t *testing.T) {
	const snapAt, total = 70, 150
	progs := map[string]*core.Program{}
	for name, kind := range map[string]core.SchedulerKind{"sparse": core.SchedulerSparse, "sequential": core.SchedulerSequential} {
		progs[name] = mustCompile(t, checkpointAssemble, core.WithSeed(1), core.WithScheduler(kind), core.WithMetrics())
	}
	dump := func(sim *core.Sim) string {
		var st bytes.Buffer
		sim.Stats().Dump(&st)
		return st.String()
	}
	oracle, err := progs["sequential"].NewSim()
	if err != nil {
		t.Fatal(err)
	}
	want := stepHashes(t, oracle, total)
	wantStats := dump(oracle)
	same := func(what string, from int, got []uint64) {
		t.Helper()
		for i, h := range got {
			if h != want[from+i] {
				t.Fatalf("%s: cycle %d diverges from the sequential oracle", what, from+i)
			}
		}
	}

	sim, err := progs["sparse"].NewSim()
	if err != nil {
		t.Fatal(err)
	}
	same("sparse", 0, stepHashes(t, sim, snapAt))
	closed := sim.Metrics().ClosedClusterCycles()
	if closed == 0 {
		t.Fatal("no cluster closed in 70 cycles; the test would compare full sweeps")
	}
	var snap bytes.Buffer
	if err := sim.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	for _, to := range []string{"sparse", "sequential"} {
		restored, err := progs[to].Restore(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		same("sparse snapshot restored under "+to, snapAt, stepHashes(t, restored, total-snapAt))
		if got := dump(restored); got != wantStats {
			t.Fatalf("sparse snapshot restored under %s ends with different statistics", to)
		}
	}
	// InvalidateActivity: the next cycle is a full sweep that closes
	// nothing and drops every signature; the cycle after re-signs, and
	// clusters close again from the one after that.
	sim.InvalidateActivity()
	same("invalidated sparse", snapAt, stepHashes(t, sim, 2))
	if got := sim.Metrics().ClosedClusterCycles(); got != closed {
		t.Fatalf("%d clusters closed on the two cycles after InvalidateActivity", got-closed)
	}
	same("invalidated sparse", snapAt+2, stepHashes(t, sim, total-snapAt-2))
	if sim.Metrics().ClosedClusterCycles() == closed {
		t.Fatal("no cluster closed again after InvalidateActivity")
	}
	if got := dump(sim); got != wantStats {
		t.Fatal("invalidated sparse session ends with different statistics")
	}
}

// resolutionCounter counts OnResolve calls per cycle.
type resolutionCounter struct{ perCycle []int }

func (r *resolutionCounter) OnCycleBegin(uint64) { r.perCycle = append(r.perCycle, 0) }
func (r *resolutionCounter) OnCycleEnd(uint64)   {}
func (r *resolutionCounter) OnResolve(*core.Conn, core.SigKind, core.Status) {
	r.perCycle[len(r.perCycle)-1]++
}

// TestTracerSeesEveryResolution: with a tracer attached no cluster
// closes, so a trace of an idle stretch is complete — three resolutions
// per connection per cycle — where an untraced twin closes clusters.
func TestTracerSeesEveryResolution(t *testing.T) {
	m := model{"idle", 0, func(t testing.TB, opts ...lse.BuildOption) *core.Sim {
		return buildMostlyIdle(t, 2, 2, 4, 4, 0.05, 3, append(opts, lse.WithSeed(3), lse.WithMetrics())...)
	}}
	var rc resolutionCounter
	traced := m.build(t, lse.WithTracer(&rc))
	untraced := m.build(t)
	for i := 0; i < 120; i++ {
		if err := traced.Step(); err != nil {
			t.Fatal(err)
		}
		if err := untraced.Step(); err != nil {
			t.Fatal(err)
		}
		if statusHash(traced) != statusHash(untraced) {
			t.Fatalf("cycle %d: traced and untraced sessions resolve differently", i)
		}
	}
	for cycle, n := range rc.perCycle {
		if n != 3*len(traced.Conns()) {
			t.Fatalf("cycle %d: tracer saw %d resolutions, want %d", cycle, n, 3*len(traced.Conns()))
		}
	}
	if traced.Metrics().ClosedClusterCycles() != 0 || !traced.Schedule().TracerOpen {
		t.Error("a traced session closed clusters, or does not report that its tracer keeps them open")
	}
	if untraced.Metrics().ClosedClusterCycles() == 0 {
		t.Error("the untraced twin closed nothing: the netlist is not idle enough to test against")
	}
}
