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
//   - The spill data lane can be released eagerly at commit so
//     transferred values are not pinned for an extra cycle.
//
// The data value is stored in one of two lanes, chosen per connection at
// Build time from the ports' PayloadKind declarations: connections whose
// driver declares PayloadUint64 use the dense scalar lane and never box;
// the rest spill to the boxed []any lane. The contract itself stays
// payload-opaque — the lane split changes storage, never resolution.
// Scalar values need no release (they pin no heap memory) and are
// unreadable outside a data-Yes window, so only the spill lane is cleared
// at commit.
//
// Status cells are plain words under the single-writer rule (DESIGN.md
// Appendix C.1): the goroutine stepping a session is the only one that
// ever touches its plane, so every access is a direct load or store. The
// data lanes are written only by the instance that drives the
// connection's data signal, before the status store that makes them
// readable.
type sigPlane struct {
	lanes  [3][]uint32 // indexed by SigKind, then conn id
	cells  []uint32    // the three lanes as one slab: cell = kind*nConns + conn id
	data   []any       // spill lane: valid where the data lane holds Yes
	scalar []uint64    // fast lane for PayloadUint64 connections
}

func newSigPlane(nConns int) sigPlane {
	p := sigPlane{cells: make([]uint32, 3*nConns)}
	for k := range p.lanes {
		p.lanes[k] = p.cells[k*nConns : (k+1)*nConns : (k+1)*nConns]
	}
	p.data = make([]any, nConns)
	p.scalar = make([]uint64, nConns)
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
	id      int
	src     *Port // output side
	dst     *Port // input side
	srcIdx  int   // index of this connection on src
	dstIdx  int   // index of this connection on dst
	scalar  bool  // data values live in the uint64 fast lane (set at Build)
	cluster int32 // combinational cluster under the sparse scheduler (set at Build)

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

// Scalar reports whether Build elected the connection into the uint64
// fast lane (driver declares PayloadUint64, sink does not demand
// PayloadAny). Spill-lane connections box every data value.
func (c *Conn) Scalar() bool { return c.scalar }

// Status returns the current resolution state of signal k — the read
// tracers use to inspect a connection mid-cycle.
func (c *Conn) Status(k SigKind) Status { return c.status(k) }

// Data returns the value carried by the data signal and whether it is
// valid (i.e. the data signal has resolved Yes this cycle). The data
// lanes are released at commit, so between cycles Data reports invalid —
// explicitly, on both lanes: the statuses still read Yes after commit,
// but neither a released spill value nor a stale scalar is observable.
// Scalar-lane values are boxed on read; tight loops should use
// Port.Uint64 instead.
func (c *Conn) Data() (any, bool) {
	if c.sim.released || c.status(SigData) != Yes {
		return nil, false
	}
	if c.scalar {
		return c.sim.plane.scalar[c.id], true
	}
	return c.sim.plane.data[c.id], true
}

// dataValue returns the data-lane value without a handshake check,
// boxing scalar-lane values on read. A scalar connection whose data
// signal is not Yes reads as nil, mirroring the spill lane's
// never-stored state.
func (c *Conn) dataValue() any {
	if c.scalar {
		if c.status(SigData) != Yes {
			return nil
		}
		return c.sim.plane.scalar[c.id]
	}
	return c.sim.plane.data[c.id]
}

// dataUint64 returns the scalar value without boxing. On a spill-lane
// connection it unboxes, so the typed read path stays correct (merely
// slow) when a connection fell back to the spill lane.
func (c *Conn) dataUint64() uint64 {
	if c.scalar {
		return c.sim.plane.scalar[c.id]
	}
	v := c.sim.plane.data[c.id]
	if v == nil {
		return 0
	}
	u, ok := v.(uint64)
	if !ok {
		contractPanic("uint64", c.String(),
			fmt.Sprintf("spill-lane value has type %T, not uint64", v))
	}
	return u
}

func (c *Conn) String() string {
	return fmt.Sprintf("%s[%d]->%s[%d]", c.src.fullName(), c.srcIdx, c.dst.fullName(), c.dstIdx)
}

func (c *Conn) status(k SigKind) Status { return c.sim.status(k, int32(c.id)) }

// status reads the kind-k status cell of the connection with the given id.
func (s *Sim) status(k SigKind, id int32) Status { return Status(s.plane.lanes[k][id]) }

// checkWrite validates that driving a signal is legal right now — the
// write-phase guard for every signal-drive entry point (raise, raiseData,
// raiseUint64). One flag load on the hot path; the failure path is split
// out so the guard inlines.
func (c *Conn) checkWrite() {
	if s := c.sim; s == nil || !s.writable {
		c.badWrite()
	}
}

func (c *Conn) badWrite() {
	if c.sim == nil {
		contractPanic("drive", c.String(), "connection not attached to a simulator")
	}
	contractPanic("drive", c.String(),
		"signals may be driven only during cycle-start or reactive phases")
}

// raise resolves signal k to status s (with value v when k is SigData).
// It returns true when this call performed the resolution. Raising an
// already-resolved signal to the same status is a no-op; to a different
// status it is a contract violation.
func (c *Conn) raise(k SigKind, s Status, v any) bool {
	c.checkWrite()
	if s == Unknown {
		contractPanic("raise "+k.String(), c.String(), "cannot raise a signal to Unknown")
	}
	if k == SigData && s == Yes {
		return c.raiseData(v)
	}
	return c.resolve(k, s)
}

// raiseData resolves the data signal to Yes carrying v, storing it in the
// connection's elected lane. On a scalar-lane connection v must be a
// uint64 — the driver declared PayloadUint64, so anything else is a
// contract violation.
func (c *Conn) raiseData(v any) bool {
	c.checkWrite()
	pl := &c.sim.plane
	if c.scalar {
		u, ok := v.(uint64)
		if !ok {
			contractPanic("send", c.String(),
				fmt.Sprintf("scalar-lane connection carries uint64 payloads, got %T "+
					"(send a uint64, or declare PayloadAny on the sink to keep the boxed lane)", v))
		}
		pl.scalar[c.id] = u
		return c.offer()
	}
	pl.data[c.id] = v
	if c.offer() {
		c.sim.spillHits.Add(1)
		return true
	}
	return false
}

// offer resolves the data signal to Yes, telling the sparse scheduler
// that the connection's cluster carries data this cycle — the one
// per-offer cost of activity gating, which is why a busy cluster needs no
// scan to be known busy.
func (c *Conn) offer() bool {
	if !c.resolve(SigData, Yes) {
		return false
	}
	if a := c.sim.act; a != nil {
		a.offered[c.cluster] = c.sim.stamp()
	}
	return true
}

// raiseUint64 resolves the data signal to Yes carrying scalar v. On a
// scalar-lane connection the store is a plain uint64 write — no boxing,
// no write barrier. On a spill-lane connection it degrades to a boxed
// store, keeping the typed API correct everywhere.
func (c *Conn) raiseUint64(v uint64) bool {
	c.checkWrite()
	pl := &c.sim.plane
	if c.scalar {
		pl.scalar[c.id] = v
		return c.offer()
	}
	pl.data[c.id] = v
	if c.offer() {
		c.sim.spillHits.Add(1)
		return true
	}
	return false
}

// resolve performs the status transition for signal k: the data/scalar
// lane store (done by the caller) must precede this call, so a handler
// that sees the status sees the value.
func (c *Conn) resolve(k SigKind, s Status) bool {
	sim := c.sim
	cell := &sim.plane.lanes[k][c.id]
	if prev := Status(*cell); prev != Unknown {
		c.checkReRaise(k, prev, s)
		return false
	}
	*cell = uint32(s)
	sim.resolved[k]++
	sim.onResolve(c, k, s)
	sim.noteResolve(c, k)
	// Wake the endpoint that observes this signal.
	if k == SigAck {
		sim.wake(c.src.owner)
	} else {
		sim.wake(c.dst.owner)
	}
	return true
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
