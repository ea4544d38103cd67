package core

// flow.go is the whole-program dataflow analysis: an abstract
// interpretation of the netlist over a small per-signal lattice, computed
// at compile time from the same module graph the schedulers levelize.
// Where schedule.go asks "in what order do signals resolve?", this pass
// asks "to what values?" — and answers with a sound over-approximation
// of every per-cycle resolution the engine could ever produce.
//
// Lattice. Each of a connection's three status signals is abstracted to a
// FlowStatus:
//
//	FlowBottom  ⊑  FlowNo, FlowYes  ⊑  FlowTop
//
// FlowNo ("always resolves No") and FlowYes ("always resolves Yes") are
// incomparable constants; FlowTop means the signal can vary from cycle to
// cycle (or the analysis cannot prove otherwise). The value a data-Yes
// cycle carries is not abstracted: the analysis is payload-blind, like the
// contract. A fact is *cycle-invariant*: FlowYes means "resolves Yes on
// every cycle of every session".
//
// Transfer functions. Facts originate from three places:
//
//   - Modules implementing FlowModel contribute their own transfer
//     function (pcl: a source with rate 0 never enables; a clockgate with
//     divisor 1 is a permanent passthrough; a delay whose inputs are
//     provably dead can never fill).
//   - Modules with no cycle-start and no reactive handler cannot drive
//     any signal (commit handlers run after resolution, where writes are
//     a contract violation), so every signal they are responsible for
//     resolves by default control; the engine mirrors applyDefault
//     exactly (data → No, enable follows data or DefaultEnable, ack is
//     the firm-data rule or DefaultAck, user control functions → ⊤).
//   - Any other handler-bearing module is opaque: ⊤ on everything it
//     might drive.
//
// Fixed point. Instances are iterated in topological order of the module
// graph's SCC condensation (forward then backward per round, so acks —
// which propagate upstream — converge as fast as forward facts), joining
// each round's proposals into the accumulated facts. Joins are monotone
// over a finite lattice, so the iteration terminates; if it has not
// settled after flowMaxRounds rounds, every connection touching a cyclic
// SCC is widened to ⊤ — the sound over-approximation for cycles — and
// the remainder converges immediately.

// FlowStatus is the abstract per-cycle resolution of one status signal.
type FlowStatus uint8

const (
	// FlowBottom is the lattice bottom: no fact has reached the signal
	// yet. It never survives a completed analysis.
	FlowBottom FlowStatus = iota
	// FlowNo: the signal provably resolves No on every cycle.
	FlowNo
	// FlowYes: the signal provably resolves Yes on every cycle.
	FlowYes
	// FlowTop is the lattice top: the resolution can vary, or the
	// analysis cannot prove it constant.
	FlowTop
)

func (f FlowStatus) String() string {
	switch f {
	case FlowBottom:
		return "⊥"
	case FlowNo:
		return "always-no"
	case FlowYes:
		return "always-yes"
	case FlowTop:
		return "⊤"
	}
	return "invalid"
}

// Const reports whether the fact pins the signal to one status.
func (f FlowStatus) Const() bool { return f == FlowNo || f == FlowYes }

// Join returns the least upper bound of two status facts.
func (f FlowStatus) Join(o FlowStatus) FlowStatus {
	switch {
	case f == o:
		return f
	case f == FlowBottom:
		return o
	case o == FlowBottom:
		return f
	}
	return FlowTop
}

// ConnFacts is the analysis result for one connection: a status fact per
// signal.
type ConnFacts struct {
	Data   FlowStatus
	Enable FlowStatus
	Ack    FlowStatus
}

// Dead reports whether the connection provably never carries a handshake:
// data, enable and ack all resolve No on every cycle.
func (f ConnFacts) Dead() bool {
	return f.Data == FlowNo && f.Enable == FlowNo && f.Ack == FlowNo
}

// ConstResolved reports whether every per-cycle observation of the
// connection is proven invariant: all three statuses are constant and no
// data flows (a value carried on data-Yes cycles is never proven
// constant).
func (f ConnFacts) ConstResolved() bool {
	return f.Data.Const() && f.Enable.Const() && f.Ack.Const() && f.Data != FlowYes
}

// FlowModel is implemented by module templates that contribute a transfer
// function to the dataflow analysis. FlowTransfer is called repeatedly
// during the fixed point; it must be a pure function of the instance's
// construction parameters and the input facts it reads through the Flow
// view, and must write a fact (via SetData/SetEnable/SetAck) for every
// signal one of its cycle-start or reactive handlers can ever drive —
// writing FlowBottom is fine early on, but *not* writing a cell asserts
// the handlers never drive that signal, letting the engine substitute the
// default-control transfer for it.
//
// The facts describe construction-time parameters; mutating a module
// mid-run in a way that changes its transfer behavior (e.g. Source.SetRate)
// invalidates them.
type FlowModel interface {
	Instance
	FlowTransfer(f *Flow)
}

// Flow is a FlowModel's window into the analysis: read accumulated facts
// of any connection, propose facts for the signals the module drives.
type Flow struct {
	eng   *flowEngine
	prop  []ConnFacts
	stamp [3][]uint32 // SigData/SigEnable/SigAck write stamps
	epoch uint32
}

// Facts returns the accumulated facts of port p's i'th connection.
func (f *Flow) Facts(p *Port, i int) ConnFacts {
	return f.eng.facts[p.Conn(i).id]
}

// SetData proposes the data-status fact for connection i of out port p.
func (f *Flow) SetData(p *Port, i int, st FlowStatus) {
	f.set(p, i, Out, SigData, st)
}

// SetEnable proposes the enable fact for connection i of out port p.
func (f *Flow) SetEnable(p *Port, i int, st FlowStatus) {
	f.set(p, i, Out, SigEnable, st)
}

// SetAck proposes the ack fact for connection i of in port p.
func (f *Flow) SetAck(p *Port, i int, st FlowStatus) {
	f.set(p, i, In, SigAck, st)
}

func (f *Flow) set(p *Port, i int, dir Dir, k SigKind, st FlowStatus) {
	if p.dir != dir {
		contractPanic("flow transfer", p.fullName(),
			"transfer functions may only propose facts for signals the module drives ("+k.String()+" belongs to the "+dir.String()+" side)")
	}
	id := p.Conn(i).id
	switch k {
	case SigData:
		f.prop[id].Data = st
	case SigEnable:
		f.prop[id].Enable = st
	case SigAck:
		f.prop[id].Ack = st
	}
	f.stamp[k][id] = f.epoch
}

func (f *Flow) begin() { f.epoch++ }

func (f *Flow) written(k SigKind, id int) bool { return f.stamp[k][id] == f.epoch }

// FlowFacts is the completed whole-program analysis: per-connection facts
// plus convergence telemetry.
type FlowFacts struct {
	facts   []ConnFacts
	rounds  int
	widened bool
}

// Conn returns the facts for connection id.
func (ff *FlowFacts) Conn(id int) ConnFacts { return ff.facts[id] }

// Len returns the number of connections analyzed.
func (ff *FlowFacts) Len() int { return len(ff.facts) }

// Rounds returns how many fixed-point rounds the analysis ran.
func (ff *FlowFacts) Rounds() int { return ff.rounds }

// Widened reports whether cyclic-SCC widening fired (the iteration did
// not settle within the round budget and every connection touching a
// dependency cycle was forced to ⊤).
func (ff *FlowFacts) Widened() bool { return ff.widened }

// Instance classification for the transfer step.
const (
	flowKindDefault uint8 = iota // no start/react handler: pure default control
	flowKindOpaque               // handlers but no transfer function: ⊤
	flowKindModel                // FlowModel: module transfer function
)

type flowEngine struct {
	instances []Instance
	conns     []*Conn
	facts     []ConnFacts
	view      Flow
	kind      []uint8
	outCells  [][]int32 // instance id -> conn ids whose data/enable it drives
	inCells   [][]int32 // instance id -> conn ids whose ack it drives
	order     []int     // instance ids, topological (sources first)
	inCyclic  []bool    // instance id -> member of a cyclic SCC
	changed   bool
}

// flowMaxRounds caps the fixed point before cyclic-SCC widening kicks in.
// Acyclic netlists converge in a handful of bidirectional rounds
// regardless of depth; only pathological cyclic regions ever get near it.
const flowMaxRounds = 64

// AnalyzeFlow runs the whole-program dataflow analysis over a built
// simulator's netlist and returns the per-connection facts. The analysis
// never runs handlers and never mutates the simulator.
func AnalyzeFlow(s *Sim) *FlowFacts {
	instances, conns := s.instances, s.conns
	e := &flowEngine{
		instances: instances,
		conns:     conns,
		facts:     make([]ConnFacts, len(conns)),
		kind:      make([]uint8, len(instances)),
		outCells:  make([][]int32, len(instances)),
		inCells:   make([][]int32, len(instances)),
		inCyclic:  make([]bool, len(instances)),
	}
	e.view.eng = e
	e.view.prop = make([]ConnFacts, len(conns))
	for k := range e.view.stamp {
		e.view.stamp[k] = make([]uint32, len(conns))
	}
	for _, c := range conns {
		e.outCells[c.src.owner.id] = append(e.outCells[c.src.owner.id], int32(c.id))
		e.inCells[c.dst.owner.id] = append(e.inCells[c.dst.owner.id], int32(c.id))
	}
	for id, inst := range instances {
		b := inst.base()
		switch {
		case b.react == nil && b.start == nil:
			e.kind[id] = flowKindDefault
		default:
			if _, ok := inst.(FlowModel); ok {
				e.kind[id] = flowKindModel
			} else {
				e.kind[id] = flowKindOpaque
			}
		}
	}
	// Topological order: Tarjan numbers SCCs in reverse topological order
	// (graph.go), so descending SCC index puts sources first; instance id
	// breaks ties deterministically.
	g := buildModuleGraph(instances, conns)
	e.order = make([]int, len(instances))
	for i := range e.order {
		e.order[i] = i
		e.inCyclic[i] = g.cyclic[g.sccOf[i]]
	}
	sortFlowOrder(e.order, g.sccOf)

	rounds, widened := 0, false
	for {
		e.changed = false
		for _, id := range e.order {
			e.transfer(id)
		}
		for i := len(e.order) - 1; i >= 0; i-- {
			e.transfer(e.order[i])
		}
		rounds++
		if !e.changed {
			break
		}
		if rounds >= flowMaxRounds && !widened {
			widened = true
			for _, c := range conns {
				if e.inCyclic[c.src.owner.id] || e.inCyclic[c.dst.owner.id] {
					e.joinData(c.id, FlowTop)
					e.joinEnable(c.id, FlowTop)
					e.joinAck(c.id, FlowTop)
				}
			}
		}
	}
	return &FlowFacts{facts: e.facts, rounds: rounds, widened: widened}
}

// sortFlowOrder sorts instance ids by descending SCC index, then
// ascending id — an insertion sort is plenty at compile time and avoids
// importing sort into the hot-path files.
func sortFlowOrder(order []int, sccOf []int) {
	less := func(a, b int) bool {
		if sccOf[a] != sccOf[b] {
			return sccOf[a] > sccOf[b]
		}
		return a < b
	}
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && less(v, order[j]) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
}

// transfer runs one instance's transfer function and joins its proposals
// (explicit or defaulted) into the accumulated facts.
func (e *flowEngine) transfer(id int) {
	switch e.kind[id] {
	case flowKindOpaque:
		for _, cid := range e.outCells[id] {
			e.joinData(int(cid), FlowTop)
			e.joinEnable(int(cid), FlowTop)
		}
		for _, cid := range e.inCells[id] {
			e.joinAck(int(cid), FlowTop)
		}
	case flowKindDefault:
		for _, cid := range e.outCells[id] {
			c := e.conns[cid]
			e.joinData(int(cid), FlowNo)
			e.joinEnable(int(cid), defaultEnableFact(c, e.facts[cid].Data))
		}
		for _, cid := range e.inCells[id] {
			c := e.conns[cid]
			f := e.facts[cid]
			e.joinAck(int(cid), defaultAckFact(c, f.Data, f.Enable))
		}
	case flowKindModel:
		fm := e.instances[id].(FlowModel)
		e.view.begin()
		fm.FlowTransfer(&e.view)
		for _, cid := range e.outCells[id] {
			c := e.conns[cid]
			if e.view.written(SigData, int(cid)) {
				e.joinData(int(cid), e.view.prop[cid].Data)
			} else {
				e.joinData(int(cid), FlowNo)
			}
			if e.view.written(SigEnable, int(cid)) {
				e.joinEnable(int(cid), e.view.prop[cid].Enable)
			} else {
				e.joinEnable(int(cid), defaultEnableFact(c, e.facts[cid].Data))
			}
		}
		for _, cid := range e.inCells[id] {
			c := e.conns[cid]
			if e.view.written(SigAck, int(cid)) {
				e.joinAck(int(cid), e.view.prop[cid].Ack)
			} else {
				f := e.facts[cid]
				e.joinAck(int(cid), defaultAckFact(c, f.Data, f.Enable))
			}
		}
	}
}

func (e *flowEngine) joinData(id int, st FlowStatus) {
	f := &e.facts[id]
	if nd := f.Data.Join(st); nd != f.Data {
		f.Data = nd
		e.changed = true
	}
}

func (e *flowEngine) joinEnable(id int, st FlowStatus) {
	f := &e.facts[id]
	if ne := f.Enable.Join(st); ne != f.Enable {
		f.Enable = ne
		e.changed = true
	}
}

func (e *flowEngine) joinAck(id int, st FlowStatus) {
	f := &e.facts[id]
	if na := f.Ack.Join(st); na != f.Ack {
		f.Ack = na
		e.changed = true
	}
}

// constFact lifts a concrete default status into the lattice.
func constFact(s Status) FlowStatus {
	if s == Yes {
		return FlowYes
	}
	return FlowNo
}

// defaultEnableFact mirrors applyDefault's enable rule over the lattice:
// a user control function is opaque (⊤); DefaultEnable pins the constant;
// otherwise enable follows the data fact.
func defaultEnableFact(c *Conn, data FlowStatus) FlowStatus {
	if c.src.opts.Control != nil {
		return FlowTop
	}
	if de := c.src.opts.DefaultEnable; de != Unknown {
		return constFact(de)
	}
	return data
}

// defaultAckFact mirrors applyDefault's ack rule over the lattice: a user
// control function is opaque (⊤); DefaultAck pins the constant; otherwise
// the firm-data rule (Yes iff data and enable both Yes) is evaluated
// pointwise on the facts.
func defaultAckFact(c *Conn, data, enable FlowStatus) FlowStatus {
	if c.dst.opts.Control != nil {
		return FlowTop
	}
	if da := c.dst.opts.DefaultAck; da != Unknown {
		return constFact(da)
	}
	switch {
	case data == FlowBottom || enable == FlowBottom:
		return FlowBottom
	case data == FlowYes && enable == FlowYes:
		return FlowYes
	case data == FlowNo || enable == FlowNo:
		return FlowNo
	}
	return FlowTop
}
