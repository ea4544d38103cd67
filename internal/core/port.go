package core

import "fmt"

// Dir is a port direction.
type Dir uint8

const (
	// In ports receive data and drive ack.
	In Dir = iota
	// Out ports drive data and enable and observe ack.
	Out
)

func (d Dir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// PortOpts customizes a port's arity constraints and default control
// semantics. The zero value gives an optional port with engine defaults.
// A port's width is the number of its connections, so wiring one port
// pair n times gives both ports n lanes; the engine applies default
// control wherever module code leaves a signal unresolved.
type PortOpts struct {
	// MinWidth is the minimum number of connections the port must have
	// after netlist assembly. Leave 0 for a fully optional port (partial
	// specification: module code iterates Width() and naturally adapts).
	MinWidth int
	// MaxWidth, when non-zero, bounds the number of connections.
	MaxWidth int
	// DefaultAck overrides the default-control resolution of the ack
	// signal on an In port. Unknown selects the engine default: accept
	// firm data (Ack iff data and enable resolved Yes). Set to No for a
	// module that must opt in explicitly to every transfer.
	DefaultAck Status
	// DefaultEnable overrides the default-control resolution of the
	// enable signal on an Out port. Unknown selects the engine default:
	// enable follows data.
	DefaultEnable Status
	// Control, when set, is consulted during default resolution instead
	// of the static defaults above, receiving the connection's current
	// data and enable statuses. It implements the paper's user-specified
	// control functions: any handshake policy can be expressed without
	// touching the module that owns the port.
	Control ControlFn
}

// ControlFn decides the default resolution of a connection's control
// signal. For an In port it returns the ack status to apply; for an Out
// port the enable status. Returning Unknown defers to the engine default.
type ControlFn func(data, enable Status, v any) Status

// Port is a named bundle of connections on a module instance. A port may
// have any number of connections ("width"); each connection is an
// independent 3-signal handshake, so widening a port scales a module's
// bandwidth without changing its code.
type Port struct {
	name  string
	dir   Dir
	owner *Base
	opts  PortOpts
	conns []*Conn

	// Lane view, bound once at Build (see bindLanes; DESIGN.md Appendix
	// J): what "lane i of this port" means in the session's signal plane,
	// so a handler's read or drive is one table access instead of a walk
	// through *Conn and *Sim. All three stay zero on a port with no
	// connections.
	sim   *Sim
	slots []int32 // lane -> plane slot (the connection's id)
	peers []*Base // lane -> instance a resolution of the signals this port drives wakes
}

// Name returns the port's name within its instance.
func (p *Port) Name() string { return p.name }

// Dir returns the port's direction.
func (p *Port) Dir() Dir { return p.dir }

// Width returns the number of connections attached to the port.
func (p *Port) Width() int { return len(p.conns) }

// Owner returns the instance the port belongs to.
func (p *Port) Owner() Instance { return p.owner.self }

// Opts returns the port's declared options — arity constraints and
// default-control overrides — for inspection by analysis tooling.
func (p *Port) Opts() PortOpts { return p.opts }

// FullName returns the port's "instance.port" name.
func (p *Port) FullName() string { return p.fullName() }

func (p *Port) fullName() string {
	if p.owner == nil {
		return "?." + p.name
	}
	return p.owner.name + "." + p.name
}

// check guards Conn and an illegal drive's error path; its failure path
// lives in a separate function so the guard stays small enough to inline.
func (p *Port) check(i int) int {
	if uint(i) >= uint(len(p.conns)) {
		p.badIndex(i)
	}
	return i
}

// slot is check for the read accessors: lane i's plane slot.
func (p *Port) slot(i int) int32 {
	if uint(i) < uint(len(p.slots)) {
		return p.slots[i]
	}
	p.badIndex(i)
	return 0
}

func (p *Port) badIndex(i int) {
	if p.owner == nil || p.owner.sim == nil {
		contractPanic("index", p.fullName(), "port not attached to a simulator")
	}
	contractPanic("index", fmt.Sprintf("%s[%d]", p.fullName(), i),
		fmt.Sprintf("port has width %d", len(p.conns)))
}

// drive is the one way a signal resolves (DESIGN.md Appendix J): lane i's
// kind-k signal to st, carrying v when it is a data Yes. The six drives
// and default control call it, and a fused operation is its per-lane
// loop. A legal drive — a bound port, a write phase, the port that drives
// kind k, a lane in range — resolves through the lane table (resolve, or
// offer for a data Yes), enforces single assignment on a signal already
// resolved, and reports to the tracer the resolution it made.
func (p *Port) drive(k SigKind, st Status, v any, i int) {
	s := p.sim
	if s == nil || !s.writable || p.dir != k.driver() || uint(i) >= uint(len(p.slots)) {
		// badDrive panics. Returning anyway keeps the failure path from
		// rejoining, which would spill every argument on the legal one.
		p.badDrive(k, st, i)
		return
	}
	var prev Status
	if k == SigData && st == Yes {
		prev = s.offer(p.slots[i], v, p.peers[i])
	} else {
		prev = s.resolve(k, p.slots[i], st, p.peers[i])
	}
	if prev != Unknown {
		p.conns[i].checkReRaise(k, prev, st)
	} else if s.tracer != nil {
		s.tracer.OnResolve(p.conns[i], k, st)
	}
}

// badDrive raises an illegal drive's contract error, checking in order
// the direction, the lane (or a port with no connection), the
// connection's simulator and the phase.
func (p *Port) badDrive(k SigKind, st Status, i int) {
	if p.dir != k.driver() {
		ops := [...][2]string{SigData: {"send nothing", "send"}, SigEnable: {"disable", "enable"}, SigAck: {"nack", "ack"}}
		contractPanic(ops[k][st-No], p.fullName(), fmt.Sprintf("not allowed on an %s port", p.dir))
	}
	c := p.conns[p.check(i)]
	if p.sim == nil {
		contractPanic("drive", c.String(), "connection not attached to a simulator")
	}
	contractPanic("drive", c.String(), "signals may be driven only during cycle-start or reactive phases")
}

// driver is the direction of the port that drives a kind-k signal: data
// and enable flow downstream from an Out port, ack upstream from an In
// port.
func (k SigKind) driver() Dir {
	if k == SigAck {
		return In
	}
	return Out
}

// --- Receiver-side observations and actions (In ports) ---

// DataStatus returns the resolution state of connection i's data signal.
func (p *Port) DataStatus(i int) Status { return p.sim.status(SigData, p.slot(i)) }

// Data returns the value offered on connection i. It is valid only when
// DataStatus(i) == Yes.
func (p *Port) Data(i int) any {
	slot := p.slot(i) // before p.sim is dereferenced: an unbound port panics with a ContractError
	return p.sim.plane.data[slot]
}

// EnableStatus returns the resolution state of connection i's enable signal.
func (p *Port) EnableStatus(i int) Status { return p.sim.status(SigEnable, p.slot(i)) }

// Ack accepts the datum offered on connection i this cycle.
func (p *Port) Ack(i int) { p.drive(SigAck, Yes, nil, i) }

// Nack refuses the datum offered on connection i this cycle.
func (p *Port) Nack(i int) { p.drive(SigAck, No, nil, i) }

// --- Sender-side observations and actions (Out ports) ---

// Send offers v on connection i this cycle.
func (p *Port) Send(i int, v any) { p.drive(SigData, Yes, v, i) }

// SendNothing resolves connection i's data signal to Nothing.
func (p *Port) SendNothing(i int) { p.drive(SigData, No, nil, i) }

// Enable commits that the data offered on connection i is firm.
func (p *Port) Enable(i int) { p.drive(SigEnable, Yes, nil, i) }

// Disable withdraws the data offered on connection i.
func (p *Port) Disable(i int) { p.drive(SigEnable, No, nil, i) }

// AckStatus returns the resolution state of connection i's ack signal.
func (p *Port) AckStatus(i int) Status { return p.sim.status(SigAck, p.slot(i)) }

// --- Post-resolution queries ---

// Transferred reports whether the handshake on connection i completed
// (data, enable and ack all affirmative). Meaningful during OnCycleEnd.
func (p *Port) Transferred(i int) bool { return p.sim.transferred(p.slot(i)) }

// TransferredData returns the datum moved over connection i this cycle,
// or (nil, false) when the handshake did not complete. After commit the
// data lane is released, so between cycles it reports (nil, false) even
// though the statuses still read Yes.
func (p *Port) TransferredData(i int) (any, bool) {
	slot := p.slot(i)
	if s := p.sim; s.released || !s.transferred(slot) {
		return nil, false
	}
	return p.sim.plane.data[slot], true
}
