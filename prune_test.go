package liberty_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/pcl"
)

// assemblePrunable wires live low-rate chains beside provably dead ones
// (rate-0 sources): the shape WithDataflowPrune exists for. The dead
// chains reach their sinks in the connection graph — LSE004 cannot see
// them — but the dataflow analysis proves every one of their signals
// resolves No forever.
func assemblePrunable(liveChains, deadChains, depth int) func(b *core.Builder) error {
	return func(b *core.Builder) error {
		chain := func(prefix string, i int, rate float64, count int64) error {
			src, err := pcl.NewSource(fmt.Sprintf("%ssrc%d", prefix, i),
				core.Params{"rate": rate, "count": count})
			if err != nil {
				return err
			}
			b.Add(src)
			var prev core.Instance = src
			for d := 0; d < depth; d++ {
				q, err := pcl.NewQueue(fmt.Sprintf("%sq%d_%d", prefix, i, d),
					core.Params{"capacity": int64(4)})
				if err != nil {
					return err
				}
				b.Add(q)
				b.Connect(prev, "out", q, "in")
				prev = q
			}
			snk, err := pcl.NewSink(fmt.Sprintf("%ssnk%d", prefix, i), nil)
			if err != nil {
				return err
			}
			b.Add(snk)
			b.Connect(prev, "out", snk, "in")
			return nil
		}
		for i := 0; i < liveChains; i++ {
			if err := chain("l", i, 0.2, 30); err != nil {
				return err
			}
		}
		for i := 0; i < deadChains; i++ {
			if err := chain("d", i, 0, 0); err != nil {
				return err
			}
		}
		return nil
	}
}

// survivingHasher fingerprints each cycle over the surviving connections
// only — the ids not deleted by the prune — so pruned and unpruned runs
// hash the same signal subset.
type survivingHasher struct {
	sim    *core.Sim
	skip   map[int]bool
	hashes []uint64
}

func (h *survivingHasher) OnCycleBegin(uint64)                             {}
func (h *survivingHasher) OnResolve(*core.Conn, core.SigKind, core.Status) {}
func (h *survivingHasher) Attach(s *core.Sim)                              { h.sim = s }

func (h *survivingHasher) OnCycleEnd(n uint64) {
	fh := fnv.New64a()
	for _, c := range h.sim.Conns() {
		if h.skip[c.ID()] {
			continue
		}
		v, _ := c.Data()
		fmt.Fprintf(fh, "%d:%d%d%d=%v;", c.ID(),
			c.Status(core.SigData), c.Status(core.SigEnable), c.Status(core.SigAck), v)
	}
	h.hashes = append(h.hashes, fh.Sum64())
}

// TestDataflowPruneBitIdentity is the prune's soundness guard: on a
// netlist of live chains beside provably dead ones, a pruned sparse
// session must produce bit-identical per-cycle statuses and values on
// every surviving connection — and identical live-sink deliveries — as
// unpruned sequential, levelized and sparse runs of the same netlist.
func TestDataflowPruneBitIdentity(t *testing.T) {
	const cycles = 200
	assemble := assemblePrunable(2, 3, 3)

	pruned, err := core.Compile(assemble,
		core.WithScheduler(core.SchedulerSparse), core.WithDataflowPrune())
	if err != nil {
		t.Fatal(err)
	}
	info := pruned.Schedule()
	// Each dead chain is 1 source + 3 queues + 1 sink = 5 instances and 4
	// connections, all provably dead.
	if info.PrunedConns != 3*4 || info.PrunedInsts != 3*5 {
		t.Fatalf("pruned %d conns / %d insts, want 12 / 15", info.PrunedConns, info.PrunedInsts)
	}
	prunedIDs := map[int]bool{}
	for id := 0; id < pruned.Conns(); id++ {
		if pruned.PrunedConn(id) {
			prunedIDs[id] = true
		}
	}
	if len(prunedIDs) != info.PrunedConns {
		t.Fatalf("PrunedConn marks %d conns, ScheduleInfo says %d", len(prunedIDs), info.PrunedConns)
	}
	prunedInsts := 0
	for id := 0; id < pruned.Instances(); id++ {
		if pruned.PrunedInstance(id) {
			prunedInsts++
		}
	}
	if prunedInsts != info.PrunedInsts {
		t.Fatalf("PrunedInstance marks %d insts, ScheduleInfo says %d", prunedInsts, info.PrunedInsts)
	}

	type runResult struct {
		hashes []uint64
		livers map[string]int64
	}
	run := func(prog *core.Program) runResult {
		t.Helper()
		h := &survivingHasher{skip: prunedIDs}
		sim, err := prog.NewSim(core.WithSeed(7), core.WithTracer(h))
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		if err := sim.Run(cycles); err != nil {
			t.Fatal(err)
		}
		livers := map[string]int64{}
		for _, inst := range sim.Instances() {
			if snk, ok := inst.(*pcl.Sink); ok && strings.HasPrefix(snk.Name(), "l") {
				livers[snk.Name()] = snk.Received()
			}
		}
		return runResult{hashes: h.hashes, livers: livers}
	}

	ref := run(mustCompile(t, assemble, core.WithScheduler(core.SchedulerSequential)))
	anyDelivered := false
	for _, n := range ref.livers {
		if n > 0 {
			anyDelivered = true
		}
	}
	if !anyDelivered {
		t.Fatal("live chains delivered nothing; the test would compare idle runs")
	}
	cases := map[string]*core.Program{
		"levelized": mustCompile(t, assemble, core.WithScheduler(core.SchedulerLevelized)),
		"sparse":    mustCompile(t, assemble, core.WithScheduler(core.SchedulerSparse)),
		"pruned":    pruned,
	}
	for name, prog := range cases {
		got := run(prog)
		if len(got.hashes) != len(ref.hashes) {
			t.Fatalf("%s: %d cycle hashes, want %d", name, len(got.hashes), len(ref.hashes))
		}
		for i := range ref.hashes {
			if got.hashes[i] != ref.hashes[i] {
				t.Fatalf("%s: cycle %d surviving-signal hash diverges from sequential", name, i)
			}
		}
		for snk, want := range ref.livers {
			if got.livers[snk] != want {
				t.Fatalf("%s: %s received %d, want %d", name, snk, got.livers[snk], want)
			}
		}
	}

	// The hashers above are tracers, and a tracer keeps every cluster
	// open. Untraced, the pruned conns are one held cluster that is never
	// evaluated, and the live chains' clusters close while they idle:
	// surviving statuses after each Step and deliveries must still be the
	// oracle's, plain and under check mode.
	if info.Clusters != 2*4 || info.ClosableClusters != 2*4 {
		t.Fatalf("pruned plan has %d clusters (%d closable), want the live chains' 8", info.Clusters, info.ClosableClusters)
	}
	step := func(prog *core.Program, opts ...core.BuildOption) (runResult, uint64) {
		t.Helper()
		sim, err := prog.NewSim(append(opts, core.WithSeed(7), core.WithMetrics())...)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		var r runResult
		for i := 0; i < cycles; i++ {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			fh := fnv.New64a()
			for _, c := range sim.Conns() {
				if !prunedIDs[c.ID()] {
					fmt.Fprintf(fh, "%d%d%d", c.Status(core.SigData), c.Status(core.SigEnable), c.Status(core.SigAck))
				}
			}
			r.hashes = append(r.hashes, fh.Sum64())
		}
		r.livers = map[string]int64{}
		for _, inst := range sim.Instances() {
			if snk, ok := inst.(*pcl.Sink); ok && strings.HasPrefix(snk.Name(), "l") {
				r.livers[snk.Name()] = snk.Received()
			}
		}
		return r, sim.Metrics().ClosedClusterCycles()
	}
	ref, _ = step(cases["levelized"])
	for _, tc := range []struct {
		name string
		opts []core.BuildOption
	}{{"pruned/untraced", nil}, {"pruned/check", []core.BuildOption{core.WithActivityCheck()}}} {
		got, closed := step(pruned, tc.opts...)
		if (closed > 0) != (tc.opts == nil) {
			t.Fatalf("%s: %d closed cluster-cycles", tc.name, closed)
		}
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("%s: surviving statuses or deliveries diverge from the levelized run", tc.name)
		}
	}
}

func mustCompile(t *testing.T, assemble func(*core.Builder) error, opts ...core.BuildOption) *core.Program {
	t.Helper()
	p, err := core.Compile(assemble, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDataflowPruneRequiresSparse pins the guard: pruning moves dead
// structure into the sparse scheduler's replayed gated region, so any
// other engine must refuse the option at build time.
func TestDataflowPruneRequiresSparse(t *testing.T) {
	_, err := core.Compile(assemblePrunable(1, 1, 1),
		core.WithScheduler(core.SchedulerLevelized), core.WithDataflowPrune())
	if err == nil || !strings.Contains(err.Error(), "sparse") {
		t.Fatalf("want build error naming the sparse scheduler, got %v", err)
	}
}

// TestDataflowPruneSessionsInherit pins the Program/Sim contract: every
// session stamped from a pruned program skips the pruned handlers, and
// the prune never changes the netlist fingerprint (stamping compatibility
// is structural, not schedule-dependent).
func TestDataflowPruneSessionsInherit(t *testing.T) {
	assemble := assemblePrunable(1, 2, 2)
	pruned, err := core.Compile(assemble,
		core.WithScheduler(core.SchedulerSparse), core.WithDataflowPrune())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Compile(assemble, core.WithScheduler(core.SchedulerSparse))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Fingerprint() != plain.Fingerprint() {
		t.Fatalf("prune changed the netlist fingerprint: %x vs %x",
			pruned.Fingerprint(), plain.Fingerprint())
	}
	for seed := int64(1); seed <= 3; seed++ {
		sim, err := pruned.NewSim(core.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(50); err != nil {
			t.Fatal(err)
		}
		for _, inst := range sim.Instances() {
			if snk, ok := inst.(*pcl.Sink); ok && strings.HasPrefix(snk.Name(), "d") {
				if n := snk.Received(); n != 0 {
					t.Fatalf("seed %d: pruned sink %s received %d values", seed, snk.Name(), n)
				}
			}
		}
		sim.Close()
	}
}
