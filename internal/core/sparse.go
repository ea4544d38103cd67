package core

// sparse.go is the activity-gated sparse scheduler. It layers an activity
// partition on top of the levelized static schedule (schedule.go): at
// compile time the netlist is split into an *active region* — instances
// that can observe or produce new signal values in some cycle — and a
// *gated region* whose inputs provably never change, computed as the
// conservative closure below. Per cycle, only the active region's
// connections are reset and re-resolved; the gated region keeps the
// resolution it settled to on the last full sweep, which the plane
// "replays" by simply not clearing those lanes. Gated reactive instances
// are not woken at all: with bit-identical inputs a conforming reactive
// handler re-derives bit-identical drives, so skipping the invocation
// cannot change any signal (its re-raises would be same-status no-ops).
//
// Activity closure. Seed instances are the ones whose behavior can vary
// cycle to cycle without any input change:
//
//   - instances with an OnCycleStart handler (per-cycle autonomy:
//     sources, queues offering buffered entries, timers);
//   - instances marked autonomous (Base.MarkAutonomous) — reactive
//     handlers that read Now() or Rand();
//   - reactive instances with no connected input (diagnostic LSE007):
//     no input can ever change, so gating would silence them forever;
//     the only safe treatment is always-active.
//
// The closure then cascades: every connection touching an active
// instance is active (its signals are reset and re-resolved each cycle),
// and every reactive instance adjacent to an active connection is
// activated in turn, transitively. The fixed point leaves gated only
// instances unreachable from any seed through reactive adjacency — their
// inputs are driven exclusively by other gated instances (whose drives
// replay) or resolve by default control (a pure function of the conn's
// own earlier-round signals), so they are bit-identical every cycle.
//
// Soundness invariant (DESIGN.md Appendix C): a reactive handler's
// drives must be a function of its observed signals and construction
// config alone — in particular, in the absence of offered data its
// behavior must not depend on Now(), Rand() or state mutated elsewhere.
// Handlers that violate this must run under OnCycleStart or declare
// MarkAutonomous. Gated regions never carry offered data (data
// originates from seed instances, and the cascade keeps every reactive
// instance within reach of a seed active), so only the idle behavior of
// a handler is ever replayed.
//
// The partition is compiled once and shared read-only across sessions;
// the full-sweep flag is per-session (Sim.needFull). Sim.InvalidateActivity
// forces a full sweep for harnesses that mutate module state between
// cycles, and the scheduler falls back to a full sweep automatically on
// cycle 0 (to establish the gated region's settled values), after any
// Step error, and after Program.Restore.

// progSparse is the compiled activity partition, shared read-only across
// every session of a Program. Connection references are ids into the
// session's conns slice; reactWake holds instance ids.
type progSparse struct {
	active     []bool  // instance id -> in the active region
	connActive []bool  // conn id -> reset and re-resolved each cycle
	dirty      []int32 // active conns, ascending id
	reactWake  []int32 // active reactive instances, ascending id

	// Active-region restrictions of the static schedule's sweep.
	fwdLevels  [][]int32
	ackLevels  [][]int32
	fwdResidue []int32
	ackResidue []int32

	// empty: every connection is active, after pruning. No reactive
	// instance is gated then either (a gated one has a gated input, or it
	// would be a seed or have cascaded), so there is nothing to replay:
	// sessions keep the partition for reporting but run the levelized
	// step (bulk reset, no per-conn dirty loops) instead of walking it.
	empty bool

	activeInsts  int // instances in the active region
	gatedReacts  int // reactive instances never woken (skipped wakes/cycle)
	alwaysActive int // seed instances
}

// buildSparse computes the activity partition over a netlist whose full
// levelized schedule has already been compiled.
func buildSparse(instances []Instance, conns []*Conn, sc *progSchedule) *progSparse {
	sp := &progSparse{
		active:     make([]bool, len(instances)),
		connActive: make([]bool, len(conns)),
	}
	// Seed the closure.
	var queue []*Base
	for _, inst := range instances {
		b := inst.base()
		if _, isComposite := inst.(*Composite); isComposite {
			continue // exports alias child ports; children seed themselves
		}
		seed := b.start != nil || b.autonomous ||
			(b.react != nil && connectedInputs(b) == 0)
		if seed {
			sp.alwaysActive++
			sp.active[b.id] = true
			queue = append(queue, b)
		}
	}
	// Cascade: active instance -> its conns are active -> reactive
	// neighbors are active.
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, p := range b.portList {
			if p.owner != b {
				continue
			}
			for _, c := range p.conns {
				if sp.connActive[c.id] {
					continue
				}
				sp.connActive[c.id] = true
				for _, nb := range []*Base{c.src.owner, c.dst.owner} {
					if nb.react != nil && !sp.active[nb.id] {
						sp.active[nb.id] = true
						queue = append(queue, nb)
					}
				}
			}
		}
	}
	for _, c := range conns {
		if sp.connActive[c.id] {
			sp.dirty = append(sp.dirty, int32(c.id))
		}
	}
	for _, inst := range instances {
		b := inst.base()
		if sp.active[b.id] {
			sp.activeInsts++
			if b.react != nil {
				sp.reactWake = append(sp.reactWake, int32(b.id))
			}
		} else if b.react != nil {
			sp.gatedReacts++
		}
	}
	// Restrict the static sweep to the active region. Levels keep their
	// internal id order, so sweep determinism is preserved.
	sp.fwdLevels = filterLevels(sc.fwdLevels, sp.connActive)
	sp.ackLevels = filterLevels(sc.ackLevels, sp.connActive)
	sp.fwdResidue = filterConns(sc.fwdResidue, sp.connActive)
	sp.ackResidue = filterConns(sc.ackResidue, sp.connActive)
	return sp
}

// connectedInputs counts the connections attached to an instance's In
// ports — the LSE007 gateability condition.
func connectedInputs(b *Base) int {
	n := 0
	for _, p := range b.portList {
		if p.owner == b && p.dir == In {
			n += len(p.conns)
		}
	}
	return n
}

func filterLevels(levels [][]int32, keep []bool) [][]int32 {
	out := make([][]int32, 0, len(levels))
	for _, lvl := range levels {
		f := filterConns(lvl, keep)
		if len(f) > 0 {
			out = append(out, f)
		}
	}
	return out
}

func filterConns(ids []int32, keep []bool) []int32 {
	var out []int32
	for _, id := range ids {
		if keep[id] {
			out = append(out, id)
		}
	}
	return out
}

// InvalidateActivity forces the next Step to run a full sweep: every
// connection is reset and every instance woken, re-establishing the
// gated region's settled values. Harnesses that mutate module state
// between cycles outside the handler phases (e.g. poking registers
// before resuming) must call it so the sparse scheduler cannot replay a
// resolution the mutation invalidated. Under the woven scheduler it
// likewise forces a full interpreted sweep (module state cannot change
// what the handler-free woven region resolves to, but the full sweep
// also re-runs every reactive handler unconditionally). A no-op under
// other schedulers.
func (s *Sim) InvalidateActivity() {
	if s.sparse != nil || s.weave != nil {
		s.needFull = true
	}
}

// applyDefaultsSparse is the sparse scheduler's default-control phase:
// the levelized sweep and residue worklist restricted to the active
// region. Gated connections already hold their replayed resolution, so
// they are never Unknown and contribute only as (resolved) dependencies.
func (s *Sim) applyDefaultsSparse() {
	sp := s.sparse
	sc := s.schedule
	s.sweep(SigData, sp.fwdLevels)
	s.runResidue(SigData, sp.fwdResidue, sc.fwdDeps, sc.fwdDependents)
	s.sweep(SigEnable, sp.fwdLevels)
	s.runResidue(SigEnable, sp.fwdResidue, sc.fwdDeps, sc.fwdDependents)
	s.sweep(SigAck, sp.ackLevels)
	s.runResidue(SigAck, sp.ackResidue, sc.ackDeps, sc.ackDependents)
}
