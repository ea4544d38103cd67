package core

// reference.go is the sequential oracle (SchedulerSequential): the
// executable statement of the model of computation, kept small enough to
// read against PAPER.md §1 items 2–4 line by line. Everything the engine
// does (schedule.go, sparse.go) is tested for bit-identity against this
// loop. It shares with the engine the signal plane (signal.go), the
// wake/drain queue, applyDefault — the one statement of default control —
// defaultRound, which resolves the engine's cyclic residue after its
// static sweep, and verifyResolved; it has no static schedule, no clusters
// and no replay: every cycle resolves every signal from Unknown.

// stepReference is one time-step of the reference.
func (s *Sim) stepReference() {
	if s.tracer != nil {
		s.tracer.OnCycleBegin(s.cycle)
	}
	// Item 2: every signal of every connection (item 3: data, enable, ack)
	// starts the time-step Unknown and resolves at most once.
	s.released = false
	s.resolved = [3]int{}
	s.plane.clearStatus()

	// Cycle-start handlers drive what follows from committed state alone.
	s.setPhase(phaseStart)
	for _, id := range s.prog.starts {
		s.bases[id].start()
	}

	// Item 2: reactive handlers run to the monotonic fixed point. Every
	// instance reacts at least once; each resolution wakes the endpoint
	// that observes it (resolve, signal.go).
	s.setPhase(phaseReact)
	for _, b := range s.bases {
		s.wake(SigData, b)
	}
	s.settle()

	// Item 4: what module code left Unknown resolves by default control,
	// in three rounds — a connection's enable default reads its data, its
	// ack default reads both.
	s.defaultRound(SigData)
	s.defaultRound(SigEnable)
	s.defaultRound(SigAck)
	s.verifyResolved()

	// Item 2: state commits at the end of the time-step; handlers may read
	// the resolved signals but no longer drive them.
	s.setPhase(phaseEnd)
	if s.tracer != nil {
		s.tracer.OnCycleEnd(s.cycle)
	}
	for _, id := range s.prog.ends {
		s.bases[id].end()
	}
	s.setPhase(phaseIdle)
	// Transferred values are released; until the next Step the data lane
	// reads "not driven" (see Sim.released).
	s.released = true
	clear(s.plane.data)
	s.cycle++
	if m := s.metrics; m != nil {
		m.cycles++
		m.starts += uint64(len(s.prog.starts))
		m.ends += uint64(len(s.prog.ends))
	}
}

// settle re-establishes the reactive fixed point, counting the pass as one
// fixed-point iteration when any handler had to run.
func (s *Sim) settle() {
	ran := s.queued()
	s.drain()
	if m := s.metrics; m != nil && ran {
		m.iters++
	}
}

// defaultRound defaults the still-Unknown kind-k signals, re-running the
// reactive fixed point after every applied default so modules react to a
// defaulted value before their own signals are defaulted.
//
// Defaults are applied dependency-aware: a signal is defaulted only once
// the module that should have driven it has every same-kind input it could
// be mirroring already resolved (defaultDepsResolved). This makes
// arbitrarily deep combinational mirror chains (queue → route → arbiter →
// sink) resolve from the leaves inward instead of being pessimistically
// killed at the head. A genuine dependency cycle — a scan that finds
// unresolved signals and can default none — is broken at the lowest-id
// unresolved connection.
//
// The engine runs this same round after its static sweep (applyDefaults),
// where only the cyclic residue is still Unknown; on an acyclic netlist
// the resolved[k] count already reads complete and the round returns at
// once.
func (s *Sim) defaultRound(k SigKind) {
	for s.resolved[k] < len(s.conns) {
		progress, blocked := false, false
		for _, c := range s.conns {
			if c.status(k) != Unknown {
				continue
			}
			if !s.defaultDepsResolved(c, k) {
				blocked = true
				continue
			}
			s.applyDefault(c, k)
			s.settle()
			progress = true
		}
		if !blocked {
			return
		}
		if progress {
			continue
		}
		for _, c := range s.conns {
			if c.status(k) == Unknown {
				if m := s.metrics; m != nil {
					m.breaks[k]++
				}
				s.applyDefault(c, k)
				s.settle()
				break
			}
		}
	}
}

// defaultDepsResolved reports whether defaulting c's signal k now cannot
// pre-empt a mirror its driving module would still perform. Data and
// enable propagate forward, so their driver (c's source module) depends
// on its input connections; acks propagate backward, so an ack's driver
// (c's destination module) depends on its own downstream acks.
func (s *Sim) defaultDepsResolved(c *Conn, k SigKind) bool {
	owner, dir := c.src.owner, In
	if k == SigAck {
		owner, dir = c.dst.owner, Out
	}
	for _, p := range owner.portList {
		if p.owner != owner || p.dir != dir {
			continue
		}
		for _, dep := range p.conns {
			if dep.status(k) == Unknown {
				return false
			}
		}
	}
	return true
}
