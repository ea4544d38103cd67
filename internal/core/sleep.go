package core

import "fmt"

// sleep.go is the engine's half of Base.Sleep (DESIGN.md Appendix C.3):
// which handlers a cycle calls, and when a sleeper wakes. Sleep is
// session state derived from the instances' own declarations — a full
// sweep wakes everyone, snapshots omit it — and the reference ignores it.
//
// The start and end rosters are the Program's: the instances with the
// handler, ascending. A sleeper costs its entry one flag test
// (Base.asleep) and wakes in two cases only: a data Yes reached one of
// its In lanes (Sim.offer stamps Base.seen; its end handler runs that
// cycle), or a full sweep. State commits only at a cycle's end, so
// between two inputs a sleeper has nothing new to offer. The engine
// drives a sleeping seed's Out ports as Port.Idle would, at its place in
// the start roster: where the reset left its clusters alone they are
// closed, every cell resolved, and the drive stores nothing. None of it
// grows an instance: the flag and the stamp sit in Base's padding, and
// the start of a sleep on the histograms that credit it.

// runStarts is the start phase: every awake start handler, and at their
// places the sleepers' idle drives, in instance order. In check mode a
// sleeper's handler runs, held to what the engine would have driven in
// its place.
func (s *Sim) runStarts() {
	skipped := 0
	for _, id := range s.prog.starts {
		b := s.bases[id]
		if !b.asleep {
			b.start()
			continue
		}
		if s.actCheck {
			s.checkAsleep(b)
			continue
		}
		skipped++
		b.idleOuts()
		if m := s.metrics; m != nil {
			m.insts[id].skippedStarts++
		}
	}
	if m := s.metrics; m != nil {
		m.starts += uint64(len(s.prog.starts) - skipped)
	}
}

// runEnds is the end phase: every awake end handler, and the handler of
// every sleeper a data Yes reached this cycle, woken first, in instance
// order.
func (s *Sim) runEnds() {
	stamp, skipped := s.stamp(), 0
	for _, id := range s.prog.ends {
		b := s.bases[id]
		if b.asleep {
			if b.seen != uint32(stamp) { // a wrapped match only wakes it early: harmless
				skipped++
				if m := s.metrics; m != nil {
					m.insts[id].skippedEnds++
				}
				continue
			}
			s.rise(b)
		}
		b.end()
	}
	if m := s.metrics; m != nil {
		m.ends += uint64(len(s.prog.ends) - skipped)
		m.sleeping += uint64(skipped)
	}
}

// idleOuts drives every Out port of a sleeper as Port.Idle does — the
// legal branch of Port.quiet, as no tracer watches a steady cycle.
func (b *Base) idleOuts() {
	s := b.sim
	for _, p := range b.portList {
		if p.owner != b || p.dir != Out {
			continue
		}
		for j, slot := range p.slots {
			if s.resolve(SigData, slot, No, p.peers[j]) == Unknown {
				s.resolve(SigEnable, slot, No, p.peers[j])
			}
		}
	}
}

// checkAsleep runs a sleeper's start handler in check mode and fails the
// Step, naming the instance, where a drive differs from what the engine
// does in its place: Port.Idle on every Out lane, nothing on an In lane.
func (s *Sim) checkAsleep(b *Base) {
	b.start()
	for _, p := range b.portList {
		if p.owner != b {
			continue
		}
		for j, slot := range p.slots {
			k, want := SigAck, Unknown
			if p.dir == Out {
				k, want = SigData, No
				if s.status(SigData, slot) == No {
					k = SigEnable
				}
			}
			if got := s.status(k, slot); got != want {
				contractPanic("activity check", p.conns[j].String(), fmt.Sprintf(
					"cycle %d: %q sleeps (Sleep), but its cycle-start handler resolved %s %s where the engine, skipping it, leaves %s: "+
						"a sleeper's Out lanes resolve as Port.Idle and its In lanes are left to its reactive handler; "+
						"sleep only when the start handler would drive nothing else until an input arrives",
					s.cycle, b.name, k, got, want))
			}
		}
	}
}

// doze puts b to sleep from the next cycle on (Sleep's engine half). A
// seed stops counting as awake in its clusters at once: this cycle's
// decision, taken while it was awake, already put them on the next
// worklist, whose decision compares its idle drives. After a full sweep
// the next worklist holds every cluster anyway, and its reset counts the
// sleepers afresh (countSeeds).
func (s *Sim) doze(b *Base) {
	b.asleep = true
	s.napping++
	for h := b.hists; h != nil; h = h.next {
		if h.asleep {
			h.since = s.cycle + 1 // the first cycle start it skips
		}
	}
	if a := s.act; a != nil && !a.allWork && b.start != nil {
		for _, cl := range s.sparse.seeds.seedClusters(b.id) {
			a.awake[cl]--
		}
	}
}

// rise ends the sleep of b, which a data Yes reached in this cycle's
// react phase, before its end handler runs: its clusters go on the next
// worklist.
func (s *Sim) rise(b *Base) {
	b.wake(s.cycle + 1)
	s.napping--
	if b.start == nil {
		return
	}
	a, stamp := s.act, s.stamp()
	for _, cl := range s.sparse.seeds.seedClusters(b.id) {
		if a.awake[cl]++; a.awake[cl] == 1 && !s.sparse.noInput[cl] {
			a.enlist(cl, stamp)
		}
	}
}

// wake ends b's sleep, its histograms credited with the cycle starts
// before cur.
func (b *Base) wake(cur uint64) {
	for h := b.hists; h != nil; h = h.next {
		if h.asleep {
			h.creditTo(cur)
		}
	}
	b.asleep = false
}

// wakeAll wakes every sleeper for a full sweep, which then rebuilds every
// cluster's state from scratch.
func (s *Sim) wakeAll() {
	if s.napping == 0 {
		return
	}
	for _, b := range s.bases {
		if b.asleep {
			b.wake(s.cycle)
		}
	}
	s.napping = 0
}

// startsDone is the number of cycle starts passed: the cycle under way's
// once its start phase is over.
func (s *Sim) startsDone() uint64 {
	if s.phase == phaseReact || s.phase == phaseEnd {
		return s.cycle + 1
	}
	return s.cycle
}
