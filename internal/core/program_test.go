package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// progTestModule is a minimal handler-bearing module for program tests.
type progTestModule struct{ Base }

func newProgTestModule(name string) *progTestModule {
	m := &progTestModule{}
	m.Init(name, m)
	m.AddInPort("in")
	m.AddOutPort("out")
	return m
}

func progTestAssemble(b *Builder) error {
	a := newProgTestModule("a")
	c := newProgTestModule("c")
	b.Add(a)
	b.Add(c)
	return b.Connect(a, "out", c, "in")
}

// TestNewSimSharesCompiledArtifacts is the zero-rebuild guarantee, pinned
// at the pointer level: a stamped session binds the program's compiled
// schedule and activity partition by reference — no Tarjan, levelization
// or cluster planning re-runs on NewSim.
func TestNewSimSharesCompiledArtifacts(t *testing.T) {
	prog, err := Compile(progTestAssemble, WithScheduler(SchedulerSparse))
	if err != nil {
		t.Fatal(err)
	}
	if prog.schedule == nil || prog.sparse == nil {
		t.Fatal("sparse compile produced no schedule/activity artifacts")
	}
	for i := 0; i < 3; i++ {
		sim, err := prog.NewSim()
		if err != nil {
			t.Fatal(err)
		}
		if sim.prog != prog {
			t.Fatal("stamped session bound a different program")
		}
		if sim.schedule != prog.schedule || sim.sparse != prog.sparse {
			t.Fatal("stamped session rebuilt schedule artifacts instead of sharing the program's")
		}
		sim.Close()
	}
}

// TestNewSimRejectsSchedulerSwitch: sessions cannot select a different
// kind than the program was compiled for, in either direction.
func TestNewSimRejectsSchedulerSwitch(t *testing.T) {
	for _, dir := range [][2]SchedulerKind{
		{SchedulerSequential, SchedulerSparse},
		{SchedulerSparse, SchedulerSequential},
	} {
		prog, err := Compile(progTestAssemble, WithScheduler(dir[0]))
		if err != nil {
			t.Fatal(err)
		}
		_, err = prog.NewSim(WithScheduler(dir[1]))
		if err == nil {
			t.Fatalf("NewSim accepted a switch from %s to %s", dir[0], dir[1])
		}
		if !strings.Contains(err.Error(), "sessions cannot select "+dir[1].String()) {
			t.Fatalf("error does not explain the scheduler mismatch: %v", err)
		}
	}
}

// TestNewSimRejectsNondeterministicRecipe: a recipe that assembles a
// different netlist on re-run — a renamed instance, a MarkSequential
// called only on the first assembly, one counter more, a renamed
// histogram — fails the structural fingerprint check. The first
// option-less session is the compiled netlist itself and cannot disagree
// with it; the second is the first re-run.
func TestNewSimRejectsNondeterministicRecipe(t *testing.T) {
	for _, mutation := range []string{"name", "mark", "counter", "histogram"} {
		calls := 0
		prog, err := Compile(func(b *Builder) error {
			calls++
			name := "a"
			if calls > 1 && mutation == "name" {
				name = "mutated"
			}
			a := newProgTestModule(name)
			if calls == 1 && mutation == "mark" {
				a.MarkSequential()
			}
			a.Counter("sent")
			if calls > 1 && mutation == "counter" {
				a.Counter("extra")
			}
			if calls > 1 && mutation == "histogram" {
				a.Histogram("renamed")
			} else {
				a.Histogram("latency")
			}
			c := newProgTestModule("c")
			b.Add(a)
			b.Add(c)
			return b.Connect(a, "out", c, "in")
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.NewSim(); err != nil || calls != 1 {
			t.Fatalf("%s: first session: err %v after %d assemblies, want the compiled netlist", mutation, err, calls)
		}
		_, err = prog.NewSim()
		var be *BuildError
		if !errors.As(err, &be) || be.Op != "new sim" || !strings.Contains(be.Detail, "assembly recipe is not deterministic") {
			t.Fatalf("%s: second NewSim on a nondeterministic recipe returned %v, want the fingerprint BuildError", mutation, err)
		}
	}
}

// TestFirstSessionIsTheCompiledNetlist counts recipe runs: Compile's
// validated netlist is the first option-less session, claimed exactly
// once; a first call that carries options stamps and releases it.
func TestFirstSessionIsTheCompiledNetlist(t *testing.T) {
	var calls atomic.Int64
	recipe := func(b *Builder) error {
		calls.Add(1)
		return progTestAssemble(b)
	}
	compile := func(opts ...BuildOption) *Program {
		t.Helper()
		calls.Store(0)
		prog, err := Compile(recipe, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	session := func(prog *Program, wantCalls int64, opts ...BuildOption) *Sim {
		t.Helper()
		sim, err := prog.NewSim(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if sim.prog != prog || sim.Now() != 0 {
			t.Fatalf("session bound to %p at cycle %d, want program %p at cycle 0", sim.prog, sim.Now(), prog)
		}
		if got := calls.Load(); got != wantCalls {
			t.Fatalf("recipe ran %d times, want %d", got, wantCalls)
		}
		return sim
	}

	prog := compile(WithSeed(5))
	first := session(prog, 1)
	if first.Seed() != 5 {
		t.Fatalf("handed-over session has seed %d, want the compile-time 5", first.Seed())
	}
	if second := session(prog, 2); second == first {
		t.Fatal("second NewSim returned the first session again")
	}

	prog = compile()
	if seeded := session(prog, 2, WithSeed(9)); seeded.Seed() != 9 {
		t.Fatalf("session option ignored: seed %d, want 9", seeded.Seed())
	}
	if prog.first != nil {
		t.Fatal("a first call with options left the compiled netlist pinned")
	}
	session(prog, 3)

	prog = compile()
	const n = 8
	sims := make([]*Sim, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sims[i], errs[i] = prog.NewSim(); errs[i] == nil {
				errs[i] = sims[i].Run(3)
			}
		}()
	}
	wg.Wait()
	seen := map[*Sim]bool{}
	for i, sim := range sims {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		seen[sim] = true
	}
	if got := calls.Load(); len(seen) != n || got != n {
		t.Fatalf("%d concurrent NewSim: %d distinct sessions from %d recipe runs, want %d from %d (one is Compile's)",
			n, len(seen), got, n, n)
	}

	// A failing compile-time check fails Compile; nothing is retained.
	boom := errors.New("post-build check says no")
	calls.Store(0)
	prog, err := Compile(recipe, WithPostBuildCheck(func(*Sim) error { return boom }))
	if !errors.Is(err, boom) || prog != nil || calls.Load() != 1 {
		t.Fatalf("Compile with a failing post-build check: program %v, err %v after %d recipe runs", prog, err, calls.Load())
	}
}

// TestPostBuildCheckRunsOnCompileOnly: a post-build check (strict
// analysis is one) runs once, when the program is compiled — not again on
// each session NewSim or Restore stamps from it.
func TestPostBuildCheckRunsOnCompileOnly(t *testing.T) {
	var runs atomic.Int64
	prog, err := Compile(progTestAssemble, WithPostBuildCheck(func(*Sim) error {
		runs.Add(1)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var last *Sim
	for i := 0; i < 3; i++ {
		if last, err = prog.NewSim(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := prog.NewSim(WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := last.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("post-build check ran %d times over one Compile, four NewSim and a Restore, want 1", got)
	}
}

// TestDirectBuildProgramMintsNoSessions: a program extracted from a plain
// Builder.Build has no recipe and says so.
func TestDirectBuildProgramMintsNoSessions(t *testing.T) {
	b := NewBuilder()
	if err := progTestAssemble(b); err != nil {
		t.Fatal(err)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	prog := sim.Program()
	if prog == nil {
		t.Fatal("direct build bound no program")
	}
	if _, err := prog.NewSim(); err == nil {
		t.Fatal("recipe-less program minted a session")
	}
}

// TestCloseIdempotent: the session-end hook tolerates repeated calls.
func TestCloseIdempotent(t *testing.T) {
	b := NewBuilder()
	if err := progTestAssemble(b); err != nil {
		t.Fatal(err)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim.Close()
	sim.Close() // must be a no-op, not a panic
}

// reactProbe is a reactive module that counts its reacts and can panic
// once from inside its handler, with a contract violation or with a
// foreign value (a bug in user code, e.g. a failed type assertion).
type reactProbe struct {
	Base
	reacts  int
	boom    bool // raise a ContractError on the next react, once
	foreign bool // panic with a plain string on the next react, once
}

func newReactProbe(name string) *reactProbe {
	m := &reactProbe{}
	m.Init(name, m)
	m.AddInPort("in")
	m.AddOutPort("out")
	m.OnReact(func() {
		m.reacts++
		if m.boom {
			m.boom = false
			contractPanic("react", name, "boom")
		}
		if m.foreign {
			m.foreign = false
			panic("foreign boom")
		}
	})
	return m
}

// TestStepErrorStrandsNoInstance: a handler that panics mid-drain
// leaves the rest of the cycle's wake broadcast queued. Step must clear
// those scheduled flags and leave the write phase — returning a
// ContractError, re-panicking anything else — or the next Step's wakes
// would skip the instances forever and a caller that recovered the panic
// would hold a silently wrong session. An aborted cycle also drops every
// idle signature: the next cycle is a full sweep, and resolves what the
// reference resolves. Both loops own the abort path, so both are driven.
func TestStepErrorStrandsNoInstance(t *testing.T) {
	for _, foreign := range []bool{false, true} {
		oracle := testStepAbort(t, SchedulerSequential, foreign)
		if got := testStepAbort(t, SchedulerSparse, foreign); got != oracle {
			t.Fatalf("engine: cycles after the abort resolve\n%s\nthe reference\n%s", got, oracle)
		}
	}
}

// testStepAbort aborts a cycle of a netlist with one chain that is
// offered data every cycle and one idle chain, checks the cleanup, and
// returns the statuses the next three cycles resolve.
func testStepAbort(t *testing.T, kind SchedulerKind, foreign bool) string {
	t.Helper()
	b := NewBuilder(WithScheduler(kind))
	drv := newOfferDriver("drv")
	b.Add(drv)
	var prev Instance = drv
	var probes []*reactProbe
	for _, name := range []string{"p0", "p1", "p2", "p3"} {
		p := newReactProbe(name)
		probes = append(probes, p)
		b.Add(p)
		b.Connect(prev, "out", p, "in")
		prev = p
	}
	idle, q := newStartDriver("idle"), newReactProbe("q")
	b.Add(idle)
	b.Add(q)
	b.Connect(idle, "out", q, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	idleCluster := -1
	if sim.sparse != nil {
		idleCluster = int(sim.sparse.clusterOf[len(sim.conns)-1])
		if sim.act.flags[idleCluster]&actClosed == 0 {
			t.Fatalf("%s: the idle chain's cluster did not close", kind)
		}
	}
	// p0 is first in the wake broadcast: p1..p3 are queued behind it.
	if foreign {
		probes[0].foreign = true
		func() {
			defer func() {
				if r := recover(); r != "foreign boom" {
					t.Fatalf("%s: Step did not re-panic the handler's value, got %v", kind, r)
				}
			}()
			sim.Step()
		}()
	} else {
		probes[0].boom = true
		if _, ok := sim.Step().(*ContractError); !ok {
			t.Fatalf("%s: Step did not return the handler's ContractError", kind)
		}
	}
	if sim.writable || sim.phase != phaseIdle {
		t.Fatalf("%s: aborted cycle left the session in its write phase", kind)
	}
	for _, base := range sim.bases {
		// An instance with no reactive handler reads as scheduled for good.
		if base.react != nil && base.scheduled {
			t.Fatalf("%s: %s left scheduled after the aborted cycle", kind, base.name)
		}
	}
	before := make([]int, len(probes))
	for i, p := range probes {
		before[i] = p.reacts
	}
	qBefore := q.reacts
	var trace strings.Builder
	for i := 0; i < 3; i++ {
		if err := sim.Step(); err != nil {
			t.Fatalf("%s: Step after the error: %v", kind, err)
		}
		if i == 0 && idleCluster >= 0 && (sim.act.flags[idleCluster] != 0 || q.reacts == qBefore) {
			t.Fatalf("%s: the cycle after the abort was not a full sweep that dropped the idle signature", kind)
		}
		for _, c := range sim.conns {
			fmt.Fprintf(&trace, "%d%d%d ", c.status(SigData), c.status(SigEnable), c.status(SigAck))
		}
		trace.WriteByte('\n')
	}
	for i, p := range probes {
		if p.reacts == before[i] {
			t.Fatalf("%s: %s never reacted again after the aborted cycle", kind, p.name)
		}
	}
	return trace.String()
}

// startDriver bears an OnCycleStart handler and one output — the minimal
// seed instance.
type startDriver struct {
	Base
	out *Port
}

func newStartDriver(name string) *startDriver {
	d := &startDriver{}
	d.Init(name, d)
	d.out = d.AddOutPort("out")
	d.OnCycleStart(func() {})
	return d
}

// offerDriver offers a datum on every out lane at every cycle start, so
// the cluster downstream of it never goes idle.
func newOfferDriver(name string) *startDriver {
	d := &startDriver{}
	d.Init(name, d)
	d.out = d.AddOutPort("out")
	d.OnCycleStart(func() {
		for i := 0; i < d.out.Width(); i++ {
			d.out.Send(i, i)
		}
	})
	return d
}

// TestEmptyPartitionNotWalked: a sparse program whose cluster plan holds
// nothing — its one cluster is offered data every cycle — still has the
// plan, and the schedule report and the active_insts metric come from it,
// but a steady cycle resets the plane in one piece like a full
// sweep; one idle island is a cluster no start handler reaches, decided
// like any other from its empty frontier: it signs on the first steady
// cycle and closes from then on.
func TestEmptyPartitionNotWalked(t *testing.T) {
	assemble := func(island bool) func(*Builder) error {
		return func(b *Builder) error {
			drv, p := newOfferDriver("drv"), newReactProbe("p")
			tail := newProgTestModule("tail") // no handlers: never "active", gates nothing
			b.Add(drv)
			b.Add(p)
			b.Add(tail)
			b.Connect(drv, "out", p, "in")
			b.Connect(p, "out", tail, "in")
			if island {
				x, y := newProgTestModule("x"), newProgTestModule("y")
				b.Add(x)
				b.Add(y)
				b.Connect(x, "out", y, "in")
				b.Connect(y, "out", x, "in")
			}
			return nil
		}
	}
	const cycles = 5
	for _, island := range []bool{false, true} {
		prog, err := Compile(assemble(island), WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		if prog.Scheduler() != SchedulerSparse || prog.sparse == nil {
			t.Fatalf("island=%v: auto did not compile a cluster plan", island)
		}
		want := 1
		if island {
			want = 2
		}
		if got := len(prog.sparse.decided); got != want {
			t.Fatalf("island=%v: plan decides %d clusters, want %d", island, got, want)
		}
		sim, err := prog.NewSim()
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(cycles); err != nil {
			t.Fatal(err)
		}
		// Only the island closes: the other cluster is offered data every cycle.
		if closed := sim.act.nClosed; (closed == 1) != island || (closed == 0) == island {
			t.Fatalf("island=%v: %d clusters closed", island, closed)
		}
		// Cycle 0 counts every instance, steady cycles the seed and the
		// probe of the open cluster.
		wantActive := uint64(len(sim.instances) + (cycles-1)*2)
		if got := sim.Metrics().ActiveInstances(); got != wantActive {
			t.Fatalf("island=%v: active_insts = %d, want %d", island, got, wantActive)
		}
		if info := sim.Schedule(); sim.Scheduler() != SchedulerSparse || info.ActiveInsts != 2 {
			t.Fatalf("island=%v: %s session's schedule reports %d active instances", island, sim.Scheduler(), info.ActiveInsts)
		}
	}
}
