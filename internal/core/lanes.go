package core

// lanes.go is the lane-vector view of a port (DESIGN.md Appendix J): the
// per-lane table Build binds, and the fused operations that act on a run
// of lanes in one call. Every fused operation is defined as the per-lane
// loop over the single-lane API it replaces, lane 0 upward — same
// resolutions, same order, same wakes, same contract errors — so a
// template may switch between the two forms freely.

// bindLanes fills every connected port's lane table from the session's
// connections: a lane's plane slot is its connection's id, and its peer
// the instance a resolution of the signals the port drives wakes. Every
// conn sits on exactly two ports: the tables are cut from two slabs per
// session, not allocated per port.
//
// An Out port drives data and enable, observed by the receiver; an In
// port drives ack, observed by the sender — except, under the engine, a
// MarkSequential sender: its react may make no call on an Out port
// (vetlse's sequential pass), so an ack is nothing its react can read,
// and the lane wakes nobody. The reference wakes every observer, so a
// template that breaks its mark makes the two disagree.
func (s *Sim) bindLanes() {
	slots := make([]int32, 2*len(s.conns))
	peers := make([]*Base, 2*len(s.conns))
	off := 0
	cut := func(p *Port) {
		end := off + len(p.conns)
		p.sim, p.slots, p.peers = s, slots[off:end:end], peers[off:end:end]
		off = end
	}
	for _, c := range s.conns {
		// Conn ids ascend in Connect order, so a port's lane 0 is met first.
		if c.srcIdx == 0 {
			cut(c.src)
		}
		if c.dstIdx == 0 {
			cut(c.dst)
		}
		sender := c.src.owner
		if sender.sequential && s.schedule != nil {
			sender = &noObserver
		}
		c.src.slots[c.srcIdx], c.src.peers[c.srcIdx] = int32(c.id), c.dst.owner
		c.dst.slots[c.dstIdx], c.dst.peers[c.dstIdx] = int32(c.id), sender
	}
}

// noObserver is the peer of a lane whose resolutions wake nobody: like
// every instance with no reactive handler, it reads as scheduled for good,
// so wake returns at once.
var noObserver = Base{scheduled: true}

// quiet is the one definition of a fused resolution. For each lane j in
// [lo, hi), ascending, it is exactly
//
//	k == SigData: if p.DataStatus(j) == Unknown { p.SendNothing(j); p.Disable(j) }
//	k == SigAck:  if p.AckStatus(j) == Unknown { p.Nack(j) }
//
// A legal call (every lane's drive would pass Port.drive's guard) hoists
// the guard out of the loop and resolves each lane through the lane
// table, reporting to the tracer as drive does; an illegal one runs the
// loop above verbatim, so it raises the single-lane operation's contract
// error at the lane it would have.
func (p *Port) quiet(k SigKind, lo, hi int) {
	if lo >= hi {
		return
	}
	s := p.sim
	if s == nil || !s.writable || p.dir != k.driver() || lo < 0 || hi > len(p.slots) {
		for j := lo; j < hi; j++ {
			if k == SigAck {
				if p.AckStatus(j) == Unknown {
					p.Nack(j)
				}
			} else if p.DataStatus(j) == Unknown {
				p.SendNothing(j)
				p.Disable(j)
			}
		}
		return
	}
	for j := lo; j < hi; j++ {
		if s.resolve(k, p.slots[j], No, p.peers[j]) != Unknown {
			continue
		}
		if s.tracer != nil {
			s.tracer.OnResolve(p.conns[j], k, No)
		}
		if k == SigData {
			p.drive(SigEnable, No, nil, j)
		}
	}
}

// Idle sends nothing on every lane of an Out port that has not offered
// yet: each lane whose data signal is still Unknown gets SendNothing and
// Disable, in ascending lane order. Lanes already resolved are left alone.
func (p *Port) Idle() { p.quiet(SigData, 0, len(p.slots)) }

// IdleLanes is Idle restricted to lanes lo ≤ j < hi. A handler that
// offers on lane d calls IdleLanes(0, d), sends, then IdleLanes(d+1,
// Width()), keeping the resolution order of the single loop.
func (p *Port) IdleLanes(lo, hi int) { p.quiet(SigData, lo, hi) }

// NackRest refuses every lane of an In port that has not been answered
// yet: each lane whose ack signal is still Unknown gets Nack, in ascending
// lane order.
func (p *Port) NackRest() { p.quiet(SigAck, 0, len(p.slots)) }

// NackLanes is NackRest restricted to lanes lo ≤ j < hi.
func (p *Port) NackLanes(lo, hi int) { p.quiet(SigAck, lo, hi) }

// Offers gathers what is offered on every lane into buf (grown when
// shorter than the port): buf[i] is Data(i) where lane i's data signal
// resolved Yes and nil where it resolved No. It scans ascending and
// reports settled == false at the first lane still Unknown, leaving the
// rest of buf unspecified.
func (p *Port) Offers(buf []any) (offers []any, settled bool) {
	if cap(buf) < len(p.slots) {
		buf = make([]any, len(p.slots))
	}
	buf = buf[:len(p.slots)]
	for i, slot := range p.slots {
		buf[i] = nil
		switch p.sim.status(SigData, slot) {
		case Unknown:
			return buf, false
		case Yes:
			buf[i] = p.sim.plane.data[slot]
		}
	}
	return buf, true
}

// CountOffers counts the lanes whose data signal resolved Yes, scanning
// ascending; it reports settled == false at the first lane still Unknown.
func (p *Port) CountOffers() (n int, settled bool) {
	for _, slot := range p.slots {
		switch p.sim.status(SigData, slot) {
		case Unknown:
			return n, false
		case Yes:
			n++
		}
	}
	return n, true
}

// NextOffered returns the first lane at or above from whose data signal
// resolved Yes, or -1: for i := p.NextOffered(0); i >= 0; i =
// p.NextOffered(i + 1) visits the offering lanes in ascending order.
func (p *Port) NextOffered(from int) int {
	if from < 0 {
		p.badIndex(from)
	}
	for i := from; i < len(p.slots); i++ {
		if p.sim.status(SigData, p.slots[i]) == Yes {
			return i
		}
	}
	return -1
}

// NextTransferred is NextOffered for completed handshakes: the first lane
// at or above from on which Transferred holds, or -1. Meaningful during
// OnCycleEnd.
func (p *Port) NextTransferred(from int) int {
	if from < 0 {
		p.badIndex(from)
	}
	for i := from; i < len(p.slots); i++ {
		if p.sim.transferred(p.slots[i]) {
			return i
		}
	}
	return -1
}
