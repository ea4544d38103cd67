package core

// weave.go is the AOT "weaving" engine (SchedulerWoven): at Compile time
// the levelized schedule is fused into specialized step kernels instead
// of being interpreted conn-by-conn every cycle. The original LSE
// *generates* simulator code; weaving closes that gap within the
// interpreted runtime by partitioning every connection into one of three
// compile-time classes:
//
//   - Const-woven: both endpoint instances bear neither an OnCycleStart
//     nor a reactive handler (OnCycleEnd is allowed — the write-phase
//     guard keeps it from driving signals), neither port carries a
//     Control function, and the connection sits in the statically
//     ordered sweep for both directions (no residue membership). Then
//     all three default resolutions are compile-time constants — data
//     No; enable DefaultEnable-or-No (enable follows the No data); ack
//     DefaultAck-or-No (firm-accept fails against No data) — so the
//     kernel specializes away entirely: the cycle-0 full sweep
//     establishes the constant resolution once and steady cycles replay
//     it by never clearing those plane cells. Unlike the sparse
//     scheduler's gated region, the replay is *accounted*: every steady
//     cycle adds the constant default and resolution counts in bulk, so
//     the scheduler metrics stay exactly equal to the sequential
//     reference (scheddiff runs woven rows with exactCounts on).
//
//   - Kernel-woven: handler-free and sweep-resident like the const
//     class, but a port carries a user Control function, whose result
//     the compiler must not constant-fold (control functions may close
//     over per-connection state). Each such connection compiles to one
//     fused closure resolving data, enable and ack in rule order with
//     raw plane stores at a compile-time index — no per-conn kind switch,
//     no eligibility scan, no wake probes (the endpoints are provably
//     reaction-free). Kernels are grouped per forward sweep level and
//     run in (level, id) order.
//
//   - Fallback: everything else — connections touching an instance with
//     a cycle-start or reactive handler (including through composite
//     export aliases) and the entire cyclic residue of either direction.
//     These resolve through the interpreted machinery each cycle: the
//     static sweep (which skips the woven cells: they are resolved
//     before it runs), then the full residue worklist, preserving the exact cycle-break sites and counts of the
//     levelized engine. The LSE014 diagnostic names these constructs so
//     users can see why a netlist falls back to interpretation.
//
// Soundness rests on the same two contracts the sparse scheduler
// documents (DESIGN.md Appendix C, Appendix I): handler locality —
// handlers observe and drive only their own ports — and control-function
// purity — a Control function's result is a function of its arguments
// (and at most per-connection state), never of cross-connection shared
// state or wall-clock order. Under those contracts no handler can
// observe or drive a woven connection, so replaying its constant
// resolution (or raw-storing the kernel's) is indistinguishable from
// re-deriving it. Full sweeps (cycle 0, Step errors, Restore,
// InvalidateActivity) run the ordinary interpreted levelized pass over
// everything, re-establishing the replayed region.
//
// The woven plan is compiled into the immutable Program and shared
// read-only by every session (NewSim stamps it by pointer, so the lsd
// service's cached programs serve woven sessions for free).

// WeaveClass classifies one connection under the woven scheduler's
// compile-time kernel specialization (see Sim.WeaveClasses).
type WeaveClass uint8

const (
	// WeaveConst marks a connection whose default resolution is a
	// compile-time constant, replayed every steady cycle without any
	// per-cycle work (the kernel specialized away).
	WeaveConst WeaveClass = iota
	// WeaveKernel marks a connection resolved by a specialized fused
	// kernel each cycle: handler-free, but a user Control function keeps
	// the resolution from constant-folding.
	WeaveKernel
	// WeaveHandler marks a fallback connection adjacent to an instance
	// with a cycle-start or reactive handler: its signals may be driven
	// by module code, so it resolves through the interpreted sweep.
	WeaveHandler
	// WeaveResidue marks a fallback connection inside or downstream of a
	// dependency cycle (handler-free endpoints): it iterates on the
	// interpreted residue worklist to keep break sites exact.
	WeaveResidue
	// WeaveHandlerResidue marks the doubly unweavable construct: a
	// residue connection that also touches handler-bearing instances.
	WeaveHandlerResidue
	// WeavePruned marks a connection WithDataflowPrune proved dead: it
	// never gets a kernel and replays its (constant, uncounted)
	// resolution like the sparse scheduler's pruned region.
	WeavePruned
)

func (wc WeaveClass) String() string {
	switch wc {
	case WeaveConst:
		return "const"
	case WeaveKernel:
		return "kernel"
	case WeaveHandler:
		return "handler"
	case WeaveResidue:
		return "residue"
	case WeaveHandlerResidue:
		return "handler-residue"
	case WeavePruned:
		return "pruned"
	}
	return "invalid"
}

// wovenKernel is one specialized step closure. Kernels are compiled into
// the Program and capture only compile-time structure (control
// functions, default statuses, connection ids); all session state is
// reached through the *Sim argument, which keeps one compiled kernel
// array correct for every concurrently stamped session.
type wovenKernel func(*Sim)

// progWeave is the compiled woven plan, shared read-only across every
// session of a Program.
type progWeave struct {
	class []WeaveClass // conn id -> compile-time class

	// Fallback region: the connections a steady cycle must reset and
	// re-resolve through the interpreted path.
	dirty     []int32    // fallback conns, ascending id
	dirtyRuns [][2]int32 // maximal contiguous [lo,hi) id runs of dirty —
	// each run clears as one memclr per status lane instead of three
	// scattered stores per connection (the plane is id-indexed, so id
	// runs are plane runs).
	spill []int32 // fallback conns on the boxed data lane — the only
	// data cells a steady cycle releases; scalar-lane cells pin nothing
	// and stay unobservable until the next data-Yes store (signal.go).

	// kernels holds the fused control kernels grouped by forward sweep
	// level, in (level, id) order. Empty when no connection needs one.
	kernels [][]wovenKernel

	// Handler rosters, precomputed so steady cycles skip the O(instances)
	// nil-handler scans of the generic Step path. Pruned instances are
	// excluded at compile time.
	startList []int32 // instance ids with an OnCycleStart handler
	reactWake []int32 // instance ids with a reactive handler
	endList   []int32 // instance ids with an OnCycleEnd handler

	nConst    int // const-woven conns (replayed, counted)
	nCtrl     int // kernel-woven conns
	nFallback int // interpreted conns
	// replay is the per-kind bulk default/resolution count a steady cycle
	// accounts for the woven region: const conns replay their constant
	// default and kernel conns resolve all three kinds by (control)
	// default, exactly as the sequential reference would count them.
	// Pruned connections are deliberately excluded — pruning skips their
	// work *and* its accounting, as under the sparse scheduler.
	replay int
}

// buildWeave compiles the woven plan for a netlist whose full levelized
// schedule has already been built. pr is the dataflow-prune result when
// the program was compiled WithDataflowPrune, else nil; pruned structure
// never gets a kernel and leaves every per-cycle list.
func buildWeave(instances []Instance, conns []*Conn, sc *progSchedule, pr *progPrune) *progWeave {
	wv := &progWeave{class: make([]WeaveClass, len(conns))}

	// Handler adjacency: every connection reachable from the port list of
	// an instance bearing a cycle-start or reactive handler. The port
	// list is walked without an ownership filter so composite export
	// aliases count — a composite with handlers can drive its child's
	// connection through the alias, which must force that connection to
	// the fallback class.
	adjacent := make([]bool, len(conns))
	for _, inst := range instances {
		b := inst.base()
		if b.start == nil && b.react == nil {
			continue
		}
		for _, p := range b.portList {
			for _, c := range p.conns {
				adjacent[c.id] = true
			}
		}
	}
	residue := make([]bool, len(conns))
	for _, id := range sc.fwdResidue {
		residue[id] = true
	}
	for _, id := range sc.ackResidue {
		residue[id] = true
	}

	fallback := make([]bool, len(conns))
	for _, c := range conns {
		id := c.id
		switch {
		case pr != nil && pr.conns[id]:
			wv.class[id] = WeavePruned
		case adjacent[id] && residue[id]:
			wv.class[id] = WeaveHandlerResidue
			fallback[id] = true
		case adjacent[id]:
			wv.class[id] = WeaveHandler
			fallback[id] = true
		case residue[id]:
			wv.class[id] = WeaveResidue
			fallback[id] = true
		case c.src.opts.Control != nil || c.dst.opts.Control != nil:
			wv.class[id] = WeaveKernel
			wv.nCtrl++
		default:
			wv.class[id] = WeaveConst
			wv.nConst++
		}
	}
	wv.replay = wv.nConst + wv.nCtrl

	for id, fb := range fallback {
		if fb {
			wv.dirty = append(wv.dirty, int32(id))
		}
	}
	wv.nFallback = len(wv.dirty)
	for i := 0; i < len(wv.dirty); {
		j := i
		for j+1 < len(wv.dirty) && wv.dirty[j+1] == wv.dirty[j]+1 {
			j++
		}
		wv.dirtyRuns = append(wv.dirtyRuns, [2]int32{wv.dirty[i], wv.dirty[j] + 1})
		i = j + 1
	}
	for _, id := range wv.dirty {
		if !conns[id].scalar {
			wv.spill = append(wv.spill, id)
		}
	}

	if wv.nCtrl > 0 {
		for _, lvl := range sc.fwdLevels {
			var ks []wovenKernel
			for _, id := range lvl {
				if wv.class[id] == WeaveKernel {
					ks = append(ks, makeControlKernel(conns[id]))
				}
			}
			if len(ks) > 0 {
				wv.kernels = append(wv.kernels, ks)
			}
		}
	}

	for _, inst := range instances {
		b := inst.base()
		if pr != nil && pr.insts[b.id] {
			continue
		}
		if b.start != nil {
			wv.startList = append(wv.startList, int32(b.id))
		}
		if b.react != nil {
			wv.reactWake = append(wv.reactWake, int32(b.id))
		}
		if b.end != nil {
			wv.endList = append(wv.endList, int32(b.id))
		}
	}
	return wv
}

// makeControlKernel specializes one handler-free, control-bearing
// connection into a fused closure resolving data, enable and ack in rule
// order. Everything that is constant at compile time — the conn id,
// the control functions, the static default statuses — is captured; the
// per-cycle body is three raw lane stores plus at most two control
// calls. Raw stores are sound because the endpoints are provably
// reaction-free: no module code can have resolved (or can observe) these
// cells mid-cycle, so the single-assignment contract the interpreted
// resolve() enforces dynamically holds here by construction. The data
// value is the compile-time nil of an undriven connection, so the
// control functions see exactly the arguments the sequential defaulter
// would pass.
func makeControlKernel(c *Conn) wovenKernel {
	id := int32(c.id)
	srcFn := c.src.opts.Control
	dstFn := c.dst.opts.Control
	defEnable := c.src.opts.DefaultEnable
	defAck := c.dst.opts.DefaultAck
	return func(s *Sim) {
		s.setStatus(SigData, id, No)
		en := Unknown
		if srcFn != nil {
			en = srcFn(No, Unknown, nil)
		}
		if en == Unknown {
			en = defEnable
		}
		if en == Unknown {
			en = No // enable follows the connection's own (defaulted-No) data
		}
		s.setStatus(SigEnable, id, en)
		ack := Unknown
		if dstFn != nil {
			ack = dstFn(No, en, nil)
		}
		if ack == Unknown {
			ack = defAck
		}
		if ack == Unknown {
			ack = No // firm-accept fails: the data signal is No
		}
		s.setStatus(SigAck, id, ack)
		if t := s.tracer; t != nil {
			kc := s.conns[id]
			t.OnResolve(kc, SigData, No)
			t.OnResolve(kc, SigEnable, en)
			t.OnResolve(kc, SigAck, ack)
		}
	}
}

// WeaveClasses returns the per-connection weave classification, indexed
// by connection id: the compiled plan when the simulator runs the woven
// scheduler, a freshly computed one (for diagnostics such as LSE014)
// when it runs any other statically scheduled engine, and nil when no
// static schedule exists (the sequential engine).
func (s *Sim) WeaveClasses() []WeaveClass {
	if s.weave != nil {
		return s.weave.class
	}
	if s.schedule == nil {
		return nil
	}
	var pr *progPrune
	if s.prog != nil {
		pr = s.prog.pruned
	}
	return buildWeave(s.instances, s.conns, s.schedule, pr).class
}

// clearWovenDirty resets the fallback region for a steady woven cycle:
// one memclr per status lane per contiguous dirty run, plus a boxed-lane
// release for the fallback connections that can actually hold a boxed
// value. Const and kernel connections are never cleared — const cells
// replay and kernel cells are overwritten unconditionally — and
// scalar-lane data cells are skipped entirely (a stale scalar pins
// nothing and is unobservable, see sigPlane).
func (s *Sim) clearWovenDirty() {
	wv := s.weave
	pl := &s.plane
	for _, r := range wv.dirtyRuns {
		lo, hi := r[0], r[1]
		clear(pl.lanes[SigData][lo:hi])
		clear(pl.lanes[SigEnable][lo:hi])
		clear(pl.lanes[SigAck][lo:hi])
	}
	for _, id := range wv.spill {
		pl.data[id] = nil
	}
}

// applyDefaultsWoven is the woven scheduler's steady-cycle default
// phase. The woven region is accounted in bulk and resolved by the
// compiled kernels; the fallback region runs the ordinary interpreted
// sweep (the woven cells are resolved by then, and skipped) and the
// full residue worklists, so cycle-break order and counts stay exactly
// those of the levelized engine.
func (s *Sim) applyDefaultsWoven() {
	wv := s.weave
	if n := wv.replay; n > 0 {
		// Replayed constants and kernel resolutions count exactly as the
		// sequential defaulter would count them: one default and one
		// resolution per kind per connection per cycle.
		s.resolved[SigData] += n
		s.resolved[SigEnable] += n
		s.resolved[SigAck] += n
		if m := s.metrics; m != nil {
			m.defaults[SigData].Add(uint64(n))
			m.defaults[SigEnable].Add(uint64(n))
			m.defaults[SigAck].Add(uint64(n))
		}
	}
	for _, lvl := range wv.kernels {
		for _, k := range lvl {
			k(s)
		}
	}
	s.applyDefaultsLevelized()
}
