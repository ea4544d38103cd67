package core

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// program.go separates the two halves the paper keeps distinct: structure
// and behavior. A Program is the immutable compiled form of a netlist —
// the static schedule, the cluster plan and the assembly recipe that
// reproduces the instance graph. A Sim is one behavioral session over that
// structure: a dense signal plane, the instances' mutable state, a cycle
// counter, per-instance RNG streams and statistics. Build compiles a
// Program exactly once; Program.NewSim stamps fresh sessions from it
// without re-running Tarjan, levelization or cluster planning, so
// thousands of concurrent simulations can share one compiled artifact.
//
// Sharing contract (DESIGN.md Appendix E): everything reachable from a
// Program after Compile returns is read-only, except two write-once
// slots, each written by the first session that needs it under its own
// mutex or sync.Once: the first-session slot (firstMu) and the statistics
// order (statsOnce). The structure is fixed at Compile — ports, handlers,
// marks and declared statistics are in the fingerprint every stamp is
// held to, and the seed plan is compiled with the cluster plan. Sessions
// index the shared [][]int32 schedule levels by connection id but write
// only their own plane, scratch and instance state, which is what makes
// concurrent NewSim+Run sessions data-race-free.

// Program is the immutable compiled form of a netlist. It is safe for
// concurrent use: any number of goroutines may call NewSim and run the
// resulting simulators in parallel.
type Program struct {
	// assemble re-runs the netlist recipe to stamp a fresh instance graph
	// for every session after the first. Nil for programs extracted from a
	// direct Builder.Build call, whose one pre-stamped session is the Sim
	// that Build returned; such programs cannot mint further sessions.
	assemble func(*Builder) error
	// first is the netlist Compile assembled and validated, never stepped:
	// the first NewSim takes it (exactly once, under firstMu) and hands
	// it over if it carries no session options, or drops it otherwise.
	first   *Sim
	firstMu sync.Mutex
	// opts are the compile-time options, re-applied to every session's
	// builder before session-specific options.
	opts []BuildOption

	sched       SchedulerKind // engine or reference, fixed at compile time
	nInsts      int
	nConns      int
	fingerprint uint64 // structural hash validating recipe determinism

	// The engine's static schedule and cluster plan: both set under
	// SchedulerSparse, both nil under the reference.
	schedule *progSchedule
	sparse   *progSparse

	// The handler rosters: the ids of the instances with a cycle-start,
	// and with a cycle-end, handler, ascending — the order both phases
	// call them in.
	starts, ends []int32
	// stats is the statistics in StatSet.Each's order, with their names:
	// computed at the first Each of any session, from that session's
	// declarations — the fingerprint makes them every session's — and
	// shared by every session. A program whose sessions never read their
	// statistics, as in construction, pays nothing.
	stats     statOrder
	statsOnce sync.Once
}

// handlerRosters lists the ids of the instances with a cycle-start, and
// with a cycle-end, handler, ascending, in one exactly sized slab.
func handlerRosters(instances []Instance) (starts, ends []int32) {
	ns, ne := 0, 0
	for _, inst := range instances {
		b := inst.base()
		if b.start != nil {
			ns++
		}
		if b.end != nil {
			ne++
		}
	}
	ids := make([]int32, ns+ne)
	starts, ends = ids[:0:ns], ids[ns:ns]
	for i, inst := range instances {
		b := inst.base()
		if b.start != nil {
			starts = append(starts, int32(i))
		}
		if b.end != nil {
			ends = append(ends, int32(i))
		}
	}
	return starts, ends
}

// Compile runs the assembly recipe once, compiles the resulting netlist
// and returns the shared Program. The recipe must be deterministic: every
// NewSim after the first re-runs it to stamp a fresh instance graph, and a
// structural fingerprint (instance names, handler shapes, marks, declared
// statistics, connection endpoints) is checked against this compilation's
// on every stamp. Build-time validation — port widths, post-build checks
// such as strict static analysis — runs here, on the session the program
// keeps as its first; post-build checks run here only, never again on a
// stamp.
func Compile(assemble func(*Builder) error, opts ...BuildOption) (*Program, error) {
	if assemble == nil {
		return nil, &BuildError{Op: "compile", Where: "?", Detail: "nil assemble function"}
	}
	b := NewBuilder(opts...)
	if err := assemble(b); err != nil {
		b.fail(err)
	}
	probe, err := b.Build()
	if err != nil {
		return nil, err
	}
	p := probe.prog
	p.assemble = assemble
	p.opts = opts
	p.first = probe
	return p, nil
}

// NewSim returns a new simulation session of the compiled program. The
// first call, if it carries no session options, is handed the netlist
// Compile validated — what a stamp with the same options would rebuild.
// Every other call stamps: the assembly recipe re-creates the instance
// graph (fresh mutable module state), and the session binds the shared
// schedule and cluster plan without recompiling either. Session options are applied after the program's compile-time
// options, so per-session seeds, tracers and metrics compose naturally;
// selecting a different scheduler than the program was compiled for is an
// error.
func (p *Program) NewSim(opts ...BuildOption) (*Sim, error) {
	if p.assemble == nil {
		return nil, &BuildError{Op: "new sim", Where: "program",
			Detail: "program has no assembly recipe; compile it with core.Compile (or load it with lse.CompileLSS) to stamp new sessions"}
	}
	p.firstMu.Lock()
	first := p.first
	p.first = nil
	p.firstMu.Unlock()
	if first != nil && len(opts) == 0 {
		return first, nil
	}
	b := NewBuilder(p.opts...)
	for _, o := range opts {
		o(b)
	}
	b.prog = p
	b.instances, b.conns = make([]Instance, 0, p.nInsts), make([]*Conn, 0, p.nConns)
	b.byName = make(map[string]Instance, p.nInsts)
	if err := p.assemble(b); err != nil {
		b.fail(err)
	}
	return b.Build()
}

// Scheduler returns the engine the program was compiled for.
func (p *Program) Scheduler() SchedulerKind { return p.sched }

// Instances returns the number of instances in the compiled netlist.
func (p *Program) Instances() int { return p.nInsts }

// Conns returns the number of connections in the compiled netlist.
func (p *Program) Conns() int { return p.nConns }

// Fingerprint returns the structural hash of the compiled netlist —
// instance names, handler shapes, marks and declared statistics plus
// connection endpoints.
// Snapshots embed it so Restore can reject state from a different program.
func (p *Program) Fingerprint() uint64 { return p.fingerprint }

// compileProgram compiles the immutable artifacts from an assembled,
// validated netlist: the structural fingerprint and — for the engine — the
// static schedule and the cluster plan. Instance ids must already be
// assigned (assembly order).
func compileProgram(instances []Instance, conns []*Conn, sched SchedulerKind) *Program {
	p := &Program{sched: sched, nInsts: len(instances), nConns: len(conns)}
	p.fingerprint = fingerprintNetlist(instances, conns)
	p.starts, p.ends = handlerRosters(instances)
	if sched == SchedulerSparse {
		g := buildGraph(instances, conns)
		p.schedule = buildSchedule(g, instances, conns)
		p.sparse = buildSparse(g, instances, conns, &p.schedule.info)
	}
	return p
}

// checkStamp validates a freshly re-assembled session netlist against the
// compiled program: same shape, same structural fingerprint, same
// scheduler kind. A mismatch means the assembly recipe is not
// deterministic (or the session tried to switch schedulers), either of
// which would let a session run under a schedule compiled for a different
// netlist.
func (p *Program) checkStamp(instances []Instance, conns []*Conn, sched SchedulerKind) error {
	if sched != p.sched {
		return &BuildError{Op: "new sim", Where: "program",
			Detail: fmt.Sprintf("program compiled for the %s scheduler; sessions cannot select %s (recompile instead)",
				p.sched, sched)}
	}
	if len(instances) != p.nInsts || len(conns) != p.nConns {
		return &BuildError{Op: "new sim", Where: "program",
			Detail: fmt.Sprintf("assembly recipe is not deterministic: compiled %d instances/%d conns, re-assembly produced %d/%d",
				p.nInsts, p.nConns, len(instances), len(conns))}
	}
	if fp := fingerprintNetlist(instances, conns); fp != p.fingerprint {
		return &BuildError{Op: "new sim", Where: "program",
			Detail: "assembly recipe is not deterministic: re-assembled netlist's structural fingerprint differs from the compiled program's"}
	}
	return nil
}

// fingerprintNetlist hashes the netlist structure the compiled artifacts
// depend on: instance names, handler shapes and marks (which drive the
// dependency graph and the activity partition), each instance's counter
// and then histogram names (which the shared statistics order indexes),
// and connection endpoints. FNV-64a over the assembly order.
func fingerprintNetlist(instances []Instance, conns []*Conn) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(uint64(len(instances)))
	for _, inst := range instances {
		b := inst.base()
		str(b.name)
		var flags uint64
		if b.react != nil {
			flags |= 1
		}
		if b.start != nil {
			flags |= 2
		}
		if b.end != nil {
			flags |= 4
		}
		if _, ok := inst.(*Composite); ok {
			flags |= 16
		}
		if b.sequential {
			flags |= 32
		}
		u64(flags)
		for c := b.counters; c != nil; c = c.next {
			str(c.name)
		}
		u64(^uint64(0)) // no name's length: ends the list
		for h := b.hists; h != nil; h = h.next {
			str(h.name)
		}
		u64(^uint64(0))
	}
	u64(uint64(len(conns)))
	for _, c := range conns {
		str(c.src.owner.name)
		str(c.src.name)
		u64(uint64(c.srcIdx))
		str(c.dst.owner.name)
		str(c.dst.name)
		u64(uint64(c.dstIdx))
	}
	return h.Sum64()
}
