package core

import "fmt"

// sigPlane is the dense signal state of a netlist: one status lane per
// signal kind plus a data-value lane, each indexed by connection id. The
// plane is allocated once at Build time; per-`Conn` signal storage does
// not exist. The layout buys three things over per-connection fields:
//
//   - Resetting a cycle is a bulk memclr per lane (Unknown is the zero
//     status by construction), not a pointer chase over every Conn.
//   - The sparse scheduler resets only the open clusters' cells; a closed
//     cluster's cells keep — "replay" — its idle signature.
//   - The data lane can be released eagerly at commit so transferred
//     values are not pinned for an extra cycle.
//
// The contract is payload-opaque: the data lane holds whatever the driver
// sent, boxed in an any (a pointer payload boxes without allocating).
//
// Status cells are plain words under the single-writer rule (DESIGN.md
// Appendix C.1): the goroutine stepping a session is the only one that
// ever touches its plane, so every access is a direct load or store. The
// data lane is written only by the instance that drives the connection's
// data signal, before the status store that makes it readable.
type sigPlane struct {
	lanes [3][]uint32 // indexed by SigKind, then conn id
	cells []uint32    // the three lanes as one slab: cell = kind*nConns + conn id
	data  []any       // valid where the data lane holds Yes
}

func newSigPlane(nConns int) sigPlane {
	p := sigPlane{cells: make([]uint32, 3*nConns)}
	for k := range p.lanes {
		p.lanes[k] = p.cells[k*nConns : (k+1)*nConns : (k+1)*nConns]
	}
	p.data = make([]any, nConns)
	return p
}

// clearStatus resets every status cell to Unknown (the zero value): one
// memclr.
func (p *sigPlane) clearStatus() { clear(p.cells) }

// Conn is one connection between an output port and an input port. It
// carries the three contract signals, whose state lives in the owning
// simulator's signal plane. Conn values are created by the Builder;
// module code observes and drives them through Port methods.
type Conn struct {
	id     int
	src    *Port // output side
	dst    *Port // input side
	srcIdx int   // index of this connection on src
	dstIdx int   // index of this connection on dst

	sim *Sim
	pos Pos // spec position of the connect statement, if known
}

// ID returns the connection's stable identifier within its netlist.
func (c *Conn) ID() int { return c.id }

// Src returns the output-side port and the connection's index on it.
func (c *Conn) Src() (*Port, int) { return c.src, c.srcIdx }

// Dst returns the input-side port and the connection's index on it.
func (c *Conn) Dst() (*Port, int) { return c.dst, c.dstIdx }

// SourcePos returns the specification position of the connect statement
// that created the connection, when known (see Builder.At); the zero Pos
// otherwise.
func (c *Conn) SourcePos() Pos { return c.pos }

// Status returns the current resolution state of signal k — the read
// tracers use to inspect a connection mid-cycle.
func (c *Conn) Status(k SigKind) Status { return c.status(k) }

// Data returns the value carried by the data signal and whether it is
// valid (i.e. the data signal has resolved Yes this cycle). The data lane
// is released at commit, so between cycles Data reports invalid —
// explicitly: the statuses still read Yes after commit, but a released
// value is not observable.
func (c *Conn) Data() (any, bool) {
	if c.sim.released || c.status(SigData) != Yes {
		return nil, false
	}
	return c.sim.plane.data[c.id], true
}

// dataValue returns the data-lane value without a handshake check.
func (c *Conn) dataValue() any { return c.sim.plane.data[c.id] }

func (c *Conn) String() string {
	return fmt.Sprintf("%s[%d]->%s[%d]", c.src.fullName(), c.srcIdx, c.dst.fullName(), c.dstIdx)
}

func (c *Conn) status(k SigKind) Status { return c.sim.status(k, int32(c.id)) }

// status reads the kind-k status cell of the connection with the given id.
func (s *Sim) status(k SigKind, id int32) Status { return Status(s.plane.lanes[k][id]) }

// resolve is the one definition of a resolution, on lane slot's kind-k
// signal: if the cell is still Unknown, the status store, the resolution
// count and the wake of obs, the instance bound to observe the signal
// (bindLanes). It returns the cell's previous status: Unknown when this
// call resolved it; otherwise the caller checks the re-raise. A data Yes
// goes through offer. Port.drive and a fused operation's legal loop
// (Port.quiet) are its callers.
func (s *Sim) resolve(k SigKind, slot int32, st Status, obs *Base) Status {
	cell := &s.plane.lanes[k][slot]
	prev := Status(*cell)
	if prev == Unknown {
		*cell = uint32(st)
		s.resolved[k]++
		s.wake(k, obs)
	}
	return prev
}

// offer is resolve for a data Yes carrying v, called by Port.drive only.
// The value store precedes the status store, so a handler that sees the
// status sees the value. The resolution also tells the sparse scheduler
// that the connection's cluster carries data this cycle — the one
// per-offer cost of activity gating, which is why a busy cluster needs no
// scan to be known busy — stamps the receiver as reached, all a sleeping
// receiver needs to be woken for its end handler (sleep.go), and counts a
// spill hit. Kept out of drive, it keeps the other five drives' path
// short.
func (s *Sim) offer(slot int32, v any, obs *Base) Status {
	s.plane.data[slot] = v
	prev := s.resolve(SigData, slot, Yes, obs)
	if prev == Unknown {
		s.spillHits++
		if a := s.act; a != nil {
			a.offered[s.sparse.clusterOf[slot]] = s.stamp()
			obs.seen = uint32(s.stamp()) // wakes a sleeping receiver for its end handler
		}
	}
	return prev
}

// checkReRaise enforces single assignment on an already-resolved signal:
// re-raising to the same status is a no-op, to a different one a
// contract violation.
func (c *Conn) checkReRaise(k SigKind, prev, s Status) {
	if prev != s {
		contractPanic("raise "+k.String(), c.String(),
			fmt.Sprintf("already resolved to %s, cannot re-raise to %s", prev, s))
	}
}

// transferred reports whether the handshake on the connection with the
// given id completed this cycle. It is meaningful only after resolution
// (during OnCycleEnd).
func (s *Sim) transferred(id int32) bool {
	return s.status(SigData, id) == Yes &&
		s.status(SigEnable, id) == Yes &&
		s.status(SigAck, id) == Yes
}
