package core

import "fmt"

// sleep.go is the engine's half of Base.SleepUntil (DESIGN.md Appendix
// C.3): which handlers a cycle calls, and when a sleeper wakes. Sleep is
// session state derived from the instances' own declarations — a full
// sweep wakes everyone, snapshots omit it — and the reference ignores it.
//
// The start and end rosters are the Program's: the instances with the
// handler, ascending. A sleeper costs its entry one flag test
// (Base.asleep) and is woken at one of three events: its due cycle begins
// (the timer heap, popped before the reset), a data Yes reached one of its
// In lanes (Sim.offer stamps Base.seen; its end handler runs that cycle),
// or a full sweep. Where the reset cleared a cluster one of its sleeping
// seeds drives, the engine drives that seed's Out ports as Port.Idle
// would, at its place in the start roster. None of it grows an instance:
// the flag and the stamp sit in Base's padding, a due cycle in the timer
// heap, and the start of a sleep on the histograms that credit it.

// runStarts is the start phase: every awake start handler, and at their
// places the idle drives of the sleepers whose clusters the reset
// cleared, in instance order. In check mode a sleeper's handler runs, held to what the engine
// would have driven in its place.
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
		if s.cleared(int(id)) {
			b.idleOuts()
		}
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
			s.rise(b, s.cycle+1, true)
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
					"cycle %d: %q sleeps (SleepUntil), but its cycle-start handler resolved %s %s where the engine, skipping it, leaves %s: "+
						"a sleeper's Out lanes resolve as Port.Idle and its In lanes are left to its reactive handler; "+
						"sleep only when the start handler would drive nothing else, or give SleepUntil the cycle that changes it",
					s.cycle, b.name, k, got, want))
			}
		}
	}
}

// doze puts b to sleep from the next cycle on (SleepUntil's engine half).
func (s *Sim) doze(b *Base, due uint64) {
	b.asleep = true
	s.napping++
	if due != NoTimer {
		s.pushTimer(timer{due, b})
	}
	for h := b.hists; h != nil; h = h.next {
		if h.asleep {
			h.since = s.cycle + 1 // the first cycle start it skips
		}
	}
	// A seed keeps its clusters on the worklist for one more cycle, whose
	// decision compares them with its idle drives (wakeOpen drops it).
	// After a full sweep the next worklist holds every cluster anyway, and
	// its reset counts the sleepers afresh (countSeeds).
	if a := s.act; a != nil && !a.allWork && b.start != nil {
		s.drowsy = append(s.drowsy, b)
	}
}

// rise ends b's sleep with cur cycle starts passed: the cycle under way at
// a due, the next one when a data Yes woke it in this cycle's react phase
// (decided: the worklist under construction is the next cycle's).
func (s *Sim) rise(b *Base, cur uint64, decided bool) {
	b.wake(cur)
	s.napping--
	if s.timerAt != nil && s.timerAt[b.id] != 0 {
		s.dropTimer(b.id)
	}
	if b.start == nil {
		return
	}
	a := s.act
	for _, cl := range a.plan.seedClusters(b.id) {
		if a.awake[cl]++; a.awake[cl] == 1 && !s.sparse.noInput[cl] {
			a.enlist(cl, s.stamp(), decided)
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
	for _, t := range s.timers {
		s.timerAt[t.b.id] = 0
	}
	s.timers, s.drowsy = s.timers[:0], s.drowsy[:0]
}

// wakeDue wakes the sleepers whose due cycle begins now.
func (s *Sim) wakeDue() {
	for len(s.timers) > 0 && s.timers[0].due <= s.cycle {
		s.rise(s.timers[0].b, s.cycle, false)
	}
}

// startsDone is the number of cycle starts passed: the cycle under way's
// once its start phase is over.
func (s *Sim) startsDone() uint64 {
	if s.phase == phaseReact || s.phase == phaseEnd {
		return s.cycle + 1
	}
	return s.cycle
}

// The timer heap: the due cycles of sleepers, a binary min-heap, with
// each member's position (plus one) in Sim.timerAt.

// timer is a heap entry: a sleeper and the cycle whose start wakes it.
type timer struct {
	due uint64
	b   *Base
}

func (s *Sim) pushTimer(t timer) {
	if s.timerAt == nil {
		s.timerAt = make([]int32, len(s.bases))
	}
	s.timers = append(s.timers, t)
	s.timerAt[t.b.id] = int32(len(s.timers))
	s.siftUp(len(s.timers) - 1)
}

func (s *Sim) dropTimer(id int) {
	i, last := int(s.timerAt[id])-1, len(s.timers)-1
	s.timerAt[id] = 0
	if i != last {
		s.timers[i] = s.timers[last]
		s.timerAt[s.timers[i].b.id] = int32(i + 1)
	}
	s.timers = s.timers[:last]
	if i != last {
		s.siftDown(i)
		s.siftUp(i)
	}
}

// swapTimers exchanges heap entries i and j.
func (s *Sim) swapTimers(i, j int) {
	h := s.timers
	h[i], h[j] = h[j], h[i]
	s.timerAt[h[i].b.id], s.timerAt[h[j].b.id] = int32(i+1), int32(j+1)
}

func (s *Sim) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.timers[p].due <= s.timers[i].due {
			return
		}
		s.swapTimers(p, i)
		i = p
	}
}

func (s *Sim) siftDown(i int) {
	h := s.timers
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].due < h[c].due {
			c++
		}
		if h[i].due <= h[c].due {
			return
		}
		s.swapTimers(c, i)
		i = c
	}
}
