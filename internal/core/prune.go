package core

// prune.go is the optimizer built on the dataflow analysis (flow.go):
// WithDataflowPrune deletes provably-dead connections and instances from
// the sparse scheduler's cluster plan (one held cluster that is never
// evaluated) and from the woven scheduler's kernel plan at compile time,
// so sessions never reset, re-resolve or wake them again.
//
// Soundness (DESIGN.md Appendix G). A connection is prunable only when
// the analysis proves all three of its signals resolve No on every cycle
// AND pure default control — no user control functions — reproduces
// exactly that resolution from the data fact alone. Then:
//
//   - On full sweeps (cycle 0, InvalidateActivity, errors, Restore) the
//     connection still resets and resolves through the full levelized
//     default sweep, which by the defaults-match condition lands on the
//     identical No/No/No resolution its handlers would have produced; any
//     handler that does still run and re-raises onto it raises the same
//     status, a no-op by the resolve contract.
//   - On steady cycles the connection simply replays that settled
//     resolution, exactly like a cluster no start handler can reach.
//
// An instance is prunable when it has at least one connection and every
// connection on its own ports is pruned: all signals it could drive are
// already proven to resolve to their default, so its cycle-start,
// reactive and commit handlers can be skipped entirely. Two observable
// (and documented) side effects: the instance's statistics freeze, and
// its per-instance RNG stream stops advancing — neither feeds back into
// any surviving signal, which is what the bit-identity differential test
// checks.

// WithDataflowPrune enables compile-time dataflow pruning: before the
// cluster plan is built, the whole-program dataflow analysis
// (AnalyzeFlow) runs over the netlist and every connection it proves
// dead — data, enable and ack all resolve No on every cycle, by default
// control alone — is deleted from the per-cycle schedule, along with
// every instance all of whose connections died. Surviving signals are
// bit-identical to the unpruned program; ScheduleInfo reports the pruned
// counts.
//
// Requires the sparse (default) or woven scheduler: pruning works by moving
// provably-dead structure into a held cluster that is never evaluated. Caveats: a
// pruned instance's statistics freeze and its handlers never run, and the
// analysis trusts construction parameters — mutating a module mid-run in
// a way that would revive a pruned region (e.g. Source.SetRate on a
// rate-0 source) is not supported under this option.
func WithDataflowPrune() BuildOption {
	return func(b *Builder) { b.prune = true }
}

// progPrune is the compiled prune result, shared read-only across every
// session of a Program.
type progPrune struct {
	conns  []bool // conn id -> deleted from the per-cycle schedule
	insts  []bool // instance id -> handlers never run
	nConns int
	nInsts int
}

// PrunedConn reports whether WithDataflowPrune deleted connection id from
// the per-cycle schedule (false when the program was compiled without the
// option).
func (p *Program) PrunedConn(id int) bool {
	return p.pruned != nil && p.pruned.conns[id]
}

// PrunedInstance reports whether WithDataflowPrune pruned instance id —
// its handlers never run (false when the program was compiled without the
// option).
func (p *Program) PrunedInstance(id int) bool {
	return p.pruned != nil && p.pruned.insts[id]
}

// computePrune selects the prunable connections and instances from the
// completed dataflow facts.
func computePrune(instances []Instance, conns []*Conn, ff *FlowFacts) *progPrune {
	pr := &progPrune{
		conns: make([]bool, len(conns)),
		insts: make([]bool, len(instances)),
	}
	for _, c := range conns {
		if pruneEligible(c, ff.Conn(c.id)) {
			pr.conns[c.id] = true
			pr.nConns++
		}
	}
	for _, inst := range instances {
		b := inst.base()
		n, dead := 0, true
		for _, p := range b.portList {
			if p.owner != b {
				continue
			}
			for _, c := range p.conns {
				n++
				if !pr.conns[c.id] {
					dead = false
				}
			}
		}
		if n > 0 && dead {
			pr.insts[b.id] = true
			pr.nInsts++
		}
	}
	return pr
}

// pruneEligible reports whether a connection can soundly leave the
// per-cycle schedule: provably dead, and resolvable to exactly those
// facts by pure default control (so full sweeps — which skip pruned
// instances' handlers — still land on the identical resolution).
func pruneEligible(c *Conn, f ConnFacts) bool {
	return f.Dead() &&
		defaultEnableFact(c, f.Data) == f.Enable &&
		defaultAckFact(c, f.Data, f.Enable) == f.Ack
}
