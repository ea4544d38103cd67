package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	core "liberty/internal/core"
)

// buildMixed assembles a netlist with a live region (driver fanning out
// to two ackers) and a dead region (two handler-less modules in a loop)
// that the sparse scheduler should gate entirely.
func buildMixed(t *testing.T, opts ...core.BuildOption) *core.Sim {
	t.Helper()
	b := core.NewBuilder(opts...)
	drv := newDriver("drv")
	b1 := newAcker("b1")
	b2 := newAcker("b2")
	x := newDeadEnd("x")
	y := newDeadEnd("y")
	for _, inst := range []core.Instance{drv, b1, b2, x, y} {
		b.Add(inst)
	}
	b.Connect(drv, "out", b1, "in")
	b.Connect(drv, "out", b2, "in")
	b.Connect(x, "out", y, "in")
	b.Connect(y, "out", x, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestSparseActivityGating: a fully handler-less netlist resolves on the
// cycle-0 full sweep and on cycle 1, whose idle resolution signs its one
// cluster (no start handler reaches it: its frontier is empty), and
// replays afterwards — default-control work is paid twice, not per cycle.
func TestSparseActivityGating(t *testing.T) {
	b := core.NewBuilder(core.WithMetrics())
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
	if got := sim.Scheduler(); got != core.SchedulerSparse {
		t.Fatalf("auto resolved to %v, want sparse", got)
	}
	const cycles = 5
	if err := sim.Run(cycles); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()
	for _, k := range []core.SigKind{core.SigData, core.SigEnable, core.SigAck} {
		if got := m.DefaultFallbacks(k); got != 4 {
			t.Errorf("default fallbacks[%s] = %d, want 4 (cycle-0 full sweep and the signing cycle 1)", k, got)
		}
		if got := m.CycleBreaks(k); got != 2 {
			t.Errorf("cycle breaks[%s] = %d, want 2", k, got)
		}
	}
	// Only the cycle-0 full sweep counts the instances as active.
	if got := m.ActiveInstances(); got != 2 {
		t.Errorf("active instances = %d, want 2", got)
	}
	// The replayed resolution stays observable between cycles.
	for _, c := range sim.Conns() {
		for _, k := range []core.SigKind{core.SigData, core.SigEnable, core.SigAck} {
			if got := c.Status(k); got != core.No {
				t.Errorf("%v %s = %v, want replayed no", c, k, got)
			}
		}
	}
	info := sim.Schedule()
	if info == nil {
		t.Fatal("sparse scheduler should expose schedule info")
	}
	if info.ActiveInsts != 0 || info.GatedInsts != 2 || info.ClosableClusters != 1 {
		t.Errorf("partition = %d/%d insts, %d closable clusters, want 0/2 and 1",
			info.ActiveInsts, info.GatedInsts, info.ClosableClusters)
	}
}

// TestSparsePartitionMixed: the live region is active (driver is a
// start-handler seed; the ackers react), the handler-less dead loop is
// not, both clusters are decided cycle by cycle, and the live region's
// behavior is unchanged.
func TestSparsePartitionMixed(t *testing.T) {
	sim := buildMixed(t, core.WithMetrics())
	info := sim.Schedule()
	if info.ActiveInsts != 3 || info.GatedInsts != 2 {
		t.Fatalf("instance partition = %d/%d, want 3 active / 2 gated", info.ActiveInsts, info.GatedInsts)
	}
	if info.AlwaysActive != 1 {
		t.Errorf("seeds = %d, want 1 (the driver)", info.AlwaysActive)
	}
	if info.Clusters != 2 || info.ClosableClusters != 2 {
		t.Errorf("%d clusters, %d closable, want 2/2", info.Clusters, info.ClosableClusters)
	}
	const cycles = 4
	if err := sim.Run(cycles); err != nil {
		t.Fatal(err)
	}
	// Live region: every cycle both fan-out transfers complete, exactly
	// as under the full schedulers.
	for i := 0; i < 2; i++ {
		if !sim.Conns()[i].Status(core.SigAck).Bool() {
			t.Errorf("live conn %d did not complete its handshake", i)
		}
	}
	m := sim.Metrics()
	// Cycle 0 is a full sweep (5 active); the remaining cycles run the
	// 3-instance active region and skip waking 0 gated reactive
	// instances (the dead loop has no reactive handlers to skip).
	if got, want := m.ActiveInstances(), uint64(5+3*(cycles-1)); got != want {
		t.Errorf("active instances = %d, want %d", got, want)
	}
	if got := m.Wakes(); got == 0 {
		t.Error("live region should still wake its reactive instances")
	}
}

// TestSparseSkippedWakes: reactive members of a closed cluster are counted
// as skipped wakes each steady cycle it stays closed.
func TestSparseSkippedWakes(t *testing.T) {
	b := core.NewBuilder(core.WithMetrics())
	// Two reactive ackers whose inputs come from a handler-less module:
	// no start handler reaches their cluster, so it signs on cycle 1 and
	// closes from cycle 2 on.
	d := newDeadEnd("d")
	a1 := newAcker("a1")
	a2 := newAcker("a2")
	b.Add(d)
	b.Add(a1)
	b.Add(a2)
	b.Connect(d, "out", a1, "in")
	b.Connect(d, "out", a2, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 5
	if err := sim.Run(cycles); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()
	if got, want := m.SkippedWakes(), uint64(2*(cycles-2)); got != want {
		t.Errorf("skipped wakes = %d, want %d", got, want)
	}
}

// TestSparseInvalidateActivity: forcing a full sweep re-resolves every
// connection for exactly one cycle.
func TestSparseInvalidateActivity(t *testing.T) {
	sim := buildMixed(t, core.WithMetrics())
	if err := sim.Run(2); err != nil { // full + 1 sparse
		t.Fatal(err)
	}
	before := sim.Metrics().ActiveInstances()
	sim.InvalidateActivity()
	if err := sim.Run(2); err != nil { // full + 1 sparse
		t.Fatal(err)
	}
	got := sim.Metrics().ActiveInstances() - before
	if want := uint64(5 + 3); got != want {
		t.Errorf("active instances across invalidated pair = %d, want %d", got, want)
	}
}

// TestSparseMatchesSequential: per-cycle post-resolution statuses are
// bit-identical between the sparse and sequential schedulers on the
// mixed netlist. (Data values are not compared: the full schedulers
// release the data lane at commit, while sparse retains gated conns'
// data as replay state — between cycles only statuses are contractual.)
func TestSparseMatchesSequential(t *testing.T) {
	snap := func(s *core.Sim) []string {
		var out []string
		for _, c := range s.Conns() {
			out = append(out, fmt.Sprintf("%d:%v/%v/%v", c.ID(),
				c.Status(core.SigData), c.Status(core.SigEnable), c.Status(core.SigAck)))
		}
		return out
	}
	sparse := buildMixed(t)
	seq := buildMixed(t, core.WithScheduler(core.SchedulerSequential))
	for cycle := 0; cycle < 6; cycle++ {
		if err := sparse.Step(); err != nil {
			t.Fatal(err)
		}
		a := snap(sparse)
		if err := seq.Step(); err != nil {
			t.Fatal(err)
		}
		b := snap(seq)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cycle %d conn %d: sparse %s != sequential %s", cycle, i, a[i], b[i])
			}
		}
	}
}

// idleStart bears a cycle-start handler that sends nothing on its one
// output: the frontier it leaves is the same every cycle.
type idleStart struct {
	core.Base
	out *core.Port
}

func newIdleStart(name string) *idleStart {
	d := &idleStart{}
	d.Init(name, d)
	d.out = d.AddOutPort("out")
	d.OnCycleStart(func() { d.out.Idle() })
	return d
}

// relay is a two-port module whose ack on in mirrors the ack it sees on
// out — a same-cycle path between its ports. Marked sequential it lies.
type relay struct {
	core.Base
	in, out *core.Port
}

func newRelay(name string, lie bool) *relay {
	r := &relay{}
	r.Init(name, r)
	r.in = r.AddInPort("in")
	r.out = r.AddOutPort("out")
	r.OnCycleStart(func() { r.out.Idle() })
	r.OnReact(func() {
		if r.in.AckStatus(0) == core.Unknown && r.out.AckStatus(0) != core.Unknown {
			if r.out.AckStatus(0) == core.Yes {
				r.in.Ack(0)
			} else {
				r.in.Nack(0)
			}
		}
	})
	if lie {
		r.MarkSequential() //vetlse:ignore the broken promise the activity check must catch
	}
	return r
}

// parityAcker answers its input at cycle start: yes on even cycles, no
// on odd ones. A start handler may do that — the scheduler compares what
// start handlers drive.
type parityAcker struct {
	core.Base
	in *core.Port
}

func newParityAcker(name string) *parityAcker {
	p := &parityAcker{}
	p.Init(name, p)
	p.in = p.AddInPort("in")
	p.OnCycleStart(func() {
		if p.Now()%2 == 0 {
			p.in.Ack(0)
		} else {
			p.in.Nack(0)
		}
	})
	return p
}

// nowAcker does from its reactive handler what parityAcker does at cycle
// start: its drives change with Now() while no observed signal does.
func newNowAcker(name string) *acker {
	a := &acker{}
	a.Init(name, a)
	a.in = a.AddInPort("in")
	a.OnReact(func() {
		if a.in.AckStatus(0) != core.Unknown {
			return
		}
		if a.Now()%2 == 0 {
			a.in.Ack(0)
		} else {
			a.in.Nack(0)
		}
	})
	return a
}

func buildChain(t *testing.T, opts []core.BuildOption, insts ...core.Instance) *core.Sim {
	t.Helper()
	b := core.NewBuilder(opts...)
	for i, inst := range insts {
		b.Add(inst)
		if i > 0 {
			b.Connect(insts[i-1], "out", inst, "in")
		}
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestClusterPlan pins how the netlist is cut: with no marked instance a
// cluster is a connected component, a mark splits it at the instance,
// every cluster is closable — the dead loop no start handler reaches too —
// and only an input-less reactive member pins a cluster open.
func TestClusterPlan(t *testing.T) {
	info := buildMixed(t).Schedule()
	if info.Clusters != 2 || info.LargestCluster != 2 || info.ClosableClusters != 2 {
		t.Errorf("mixed netlist: %d clusters (largest %d, %d closable), want 2/2/2",
			info.Clusters, info.LargestCluster, info.ClosableClusters)
	}
	for _, marked := range []bool{false, true} {
		info := buildChain(t, nil, newIdleStart("drv"), newRelay("r", marked), newAcker("a")).Schedule()
		want := []int{2}
		if marked {
			want = []int{1, 1}
		}
		if fmt.Sprint(info.ClusterSizes) != fmt.Sprint(want) {
			t.Errorf("relay marked=%v: cluster sizes %v, want %v", marked, info.ClusterSizes, want)
		}
		if marked == (len(info.GlueInstances) == 1) {
			t.Errorf("relay marked=%v: glue instances %v", marked, info.GlueInstances)
		}
	}
	// A reactive instance with no connected input (LSE007) pins its cluster.
	src := newRelay("src", false)
	info = buildChain(t, nil, src, newAcker("a")).Schedule()
	if info.NoInputClusters != 1 || info.ClosableClusters != 0 {
		t.Errorf("input-less reactive member: %d never-closing, %d closable clusters, want 1/0", info.NoInputClusters, info.ClosableClusters)
	}
}

// quad is a marked two-in, two-out buffer: it idles its outputs at cycle
// start and refuses its inputs from their own lanes.
type quad struct {
	core.Base
	in0, in1, out0, out1 *core.Port
}

func newQuad(name string) *quad {
	q := &quad{}
	q.Init(name, q)
	q.in0, q.in1 = q.AddInPort("in0"), q.AddInPort("in1")
	q.out0, q.out1 = q.AddOutPort("out0"), q.AddOutPort("out1")
	q.OnCycleStart(func() {
		q.out0.Idle()
		q.out1.Idle()
	})
	q.OnReact(func() {
		q.in0.NackRest()
		q.in1.NackRest()
	})
	q.MarkSequential()
	return q
}

// TestClusterPlanMembersOutnumberConns: two marked reactive instances
// wired out-to-in on four ports each make every conn its own cluster with
// two reactive members, so the plan has twice as many memberships as
// conns. The plan must size its member lists by the memberships.
func TestClusterPlanMembersOutnumberConns(t *testing.T) {
	b := core.NewBuilder(core.WithActivityCheck())
	x, y := newQuad("x"), newQuad("y")
	b.Add(x)
	b.Add(y)
	for _, c := range [][2]core.Instance{{x, y}, {y, x}} {
		for _, p := range []string{"0", "1"} {
			if err := b.Connect(c[0], "out"+p, c[1], "in"+p); err != nil {
				t.Fatal(err)
			}
		}
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if info := sim.Schedule(); info.Clusters != 4 || info.ClosableClusters != 4 {
		t.Errorf("%d clusters (%d closable), want 4 closable single-conn clusters", info.Clusters, info.ClosableClusters)
	}
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPlanCompositeExports: a composite owns no connections — its
// exports alias child ports — so it joins no cluster and glues nothing.
func TestClusterPlanCompositeExports(t *testing.T) {
	b := core.NewBuilder(core.WithMetrics())
	comp := &core.Composite{}
	comp.Init("comp", comp)
	inner, tail := newRelay("comp/r", true), newAcker("comp/a")
	b.Add(inner)
	b.Add(tail)
	comp.AddChild(inner)
	comp.AddChild(tail)
	comp.Export("in", inner.PortByName("in"))
	b.Add(comp)
	drv := newIdleStart("drv")
	b.Add(drv)
	b.Connect(drv, "out", comp, "in")
	b.Connect(inner, "out", tail, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	info := sim.Schedule()
	if fmt.Sprint(info.ClusterSizes) != "[1 1]" || info.ClosableClusters != 2 {
		t.Fatalf("cluster sizes %v (%d closable), want two one-conn closable clusters", info.ClusterSizes, info.ClosableClusters)
	}
	if err := sim.Run(6); err != nil {
		t.Fatal(err)
	}
	// Both clusters are idle: signed on cycle 1, closed from cycle 2 on.
	if got := sim.Metrics().ClosedClusterCycles(); got != 2*4 {
		t.Errorf("closed cluster-cycles = %d, want 8", got)
	}
}

// TestActivityCheckCatchesLyingTemplates: the two ways a template can
// break the contract closing rests on — a MarkSequential instance that
// passes a signal between its ports, and a reactive handler that reads
// Now() with no data offered — run unnoticed into wrong statuses without
// the check, and end in a positioned ContractError with it.
func TestActivityCheckCatchesLyingTemplates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(opts ...core.BuildOption) *core.Sim
		driver string
	}{
		{"lying-sequential-mark", func(opts ...core.BuildOption) *core.Sim {
			return buildChain(t, opts, newIdleStart("drv"), newRelay("liar", true), newParityAcker("par"))
		}, "liar"},
		{"react-reads-now", func(opts ...core.BuildOption) *core.Sim {
			return buildChain(t, opts, newIdleStart("drv"), newNowAcker("clocked"))
		}, "clocked"},
	} {
		// Unchecked, the cluster closes on a signature that stopped
		// being true: the ack on conn 0 no longer alternates.
		oracle := tc.build(core.WithScheduler(core.SchedulerSequential))
		sparse := tc.build()
		diverged := false
		for i := 0; i < 6; i++ {
			if err := oracle.Step(); err != nil {
				t.Fatal(err)
			}
			if err := sparse.Step(); err != nil {
				t.Fatal(err)
			}
			if oracle.Conns()[0].Status(core.SigAck) != sparse.Conns()[0].Status(core.SigAck) {
				diverged = true
			}
		}
		if !diverged {
			t.Fatalf("%s: the fixture does not break the contract", tc.name)
		}
		checked := tc.build(core.WithActivityCheck())
		var err error
		for i := 0; i < 6 && err == nil; i++ {
			err = checked.Step()
		}
		var ce *core.ContractError
		if !errors.As(err, &ce) || ce.Op != "activity check" {
			t.Fatalf("%s: check mode returned %v, want an activity-check ContractError", tc.name, err)
		}
		if ce.Where != checked.Conns()[0].String() {
			t.Errorf("%s: error positioned at %q, want conn 0 %q", tc.name, ce.Where, checked.Conns()[0])
		}
		for _, want := range []string{"cycle 2", "ack resolved yes", fmt.Sprintf("%q drives it", tc.driver), "OnCycleStart", "MarkSequential"} {
			if !strings.Contains(ce.Detail, want) {
				t.Errorf("%s: error detail lacks %q:\n%s", tc.name, want, ce.Detail)
			}
		}
		// The failed check is a Step error like any other: the session
		// stays steppable and its next cycle is a full sweep.
		if err := checked.Step(); err != nil {
			t.Errorf("%s: Step after the check error: %v", tc.name, err)
		}
	}
	// The remedy works: the same decision driven from OnCycleStart, where
	// the frontier observes it, passes check mode.
	if err := buildChain(t, []core.BuildOption{core.WithActivityCheck()}, newIdleStart("drv"), newParityAcker("clocked")).Run(8); err != nil {
		t.Fatalf("Now()-driven ack from OnCycleStart under check mode: %v", err)
	}
}

// TestBrokenMarkDiverges: under the engine an ack wakes no MarkSequential
// sender — the mark says its react reads no Out port — while the
// reference wakes every observer. A relay that offers at cycle start and
// acks its input as its output is acked, between a source that offers
// and enables at cycle start and a sink that refuses, breaks the mark if
// it has one: nothing but the refusal would wake it again, so the
// reference wakes it and it nacks, while under the engine default control
// acks. The first signal that differs is one the relay drives. Unmarked,
// the two agree.
func TestBrokenMarkDiverges(t *testing.T) {
	for _, lie := range []bool{false, true} {
		var sims [2]*core.Sim
		for i, kind := range []core.SchedulerKind{core.SchedulerSequential, core.SchedulerSparse} {
			r := newRelay("r", lie)
			r.OnCycleStart(func() {
				r.out.Send(0, 1)
				r.out.Enable(0)
			})
			refuse := newSink("k", func(uint64, int) bool { return false })
			sims[i] = buildChain(t, []core.BuildOption{core.WithScheduler(kind)}, newSource("src"), r, refuse)
			if err := sims[i].Run(1); err != nil {
				t.Fatal(err)
			}
		}
		driver := ""
	diff:
		for id, c := range sims[0].Conns() {
			for _, k := range []core.SigKind{core.SigData, core.SigEnable, core.SigAck} {
				if c.Status(k) == sims[1].Conns()[id].Status(k) {
					continue
				}
				p, _ := c.Src()
				if k == core.SigAck {
					p, _ = c.Dst()
				}
				driver = p.Owner().Name()
				break diff
			}
		}
		if want := map[bool]string{true: "r"}[lie]; driver != want {
			t.Errorf("relay marked=%v: the engine first differs from the reference on a signal %q drives, want %q", lie, driver, want)
		}
	}
}
