// Package flow surfaces the engine's whole-program dataflow analysis
// (core.AnalyzeFlow, DESIGN.md Appendix G) as the classified findings the
// lint passes LSE009, LSE010, LSE012 and LSE013 report: dead connections
// and instances, constant-driven handshakes, provable protocol stalls and
// constant-foldable subnetlists. The classification here is
// pure bookkeeping over the per-connection facts — the lattice and the
// fixed point live in internal/core, beside the default-control rules
// their transfer functions mirror.
package flow

import (
	core "liberty/internal/core"
)

// Result is one completed analysis over a built simulator's netlist.
type Result struct {
	sim   *core.Sim
	facts *core.FlowFacts

	// Adjacency by instance, own ports only (a composite's exports alias
	// child ports, so conns attribute to the owning child).
	conns map[core.Instance][]*core.Conn
	insts []core.Instance // instances with >= 1 own connection, netlist order
}

// Analyze runs the dataflow analysis over a built simulator and indexes
// the facts for classification. It never mutates the simulator.
func Analyze(s *core.Sim) *Result {
	r := &Result{
		sim:   s,
		facts: core.AnalyzeFlow(s),
		conns: make(map[core.Instance][]*core.Conn),
	}
	for _, c := range s.Conns() {
		sp, _ := c.Src()
		dp, _ := c.Dst()
		r.conns[sp.Owner()] = append(r.conns[sp.Owner()], c)
		r.conns[dp.Owner()] = append(r.conns[dp.Owner()], c)
	}
	for _, inst := range s.Instances() {
		if len(r.conns[inst]) > 0 {
			r.insts = append(r.insts, inst)
		}
	}
	return r
}

// Facts returns the analyzed facts for one connection.
func (r *Result) Facts(c *core.Conn) core.ConnFacts { return r.facts.Conn(c.ID()) }

// Rounds returns how many fixed-point rounds the analysis ran.
func (r *Result) Rounds() int { return r.facts.Rounds() }

// Widened reports whether cyclic-SCC widening fired.
func (r *Result) Widened() bool { return r.facts.Widened() }

func (r *Result) selectConns(pred func(core.ConnFacts) bool) []*core.Conn {
	var out []*core.Conn
	for _, c := range r.sim.Conns() {
		if pred(r.facts.Conn(c.ID())) {
			out = append(out, c)
		}
	}
	return out
}

// DeadConns returns the connections proven dead: data, enable and ack all
// resolve No on every cycle — no value can ever transfer (LSE010).
func (r *Result) DeadConns() []*core.Conn {
	return r.selectConns(core.ConnFacts.Dead)
}

// DeadInstances returns the instances with at least one connection, every
// one of which is dead: alive in the connection graph, dead in the
// lattice (LSE010).
func (r *Result) DeadInstances() []core.Instance {
	var out []core.Instance
	for _, inst := range r.insts {
		dead := true
		for _, c := range r.conns[inst] {
			if !r.facts.Conn(c.ID()).Dead() {
				dead = false
				break
			}
		}
		if dead {
			out = append(out, inst)
		}
	}
	return out
}

// ConstHandshakes returns the connections whose enable and ack both
// provably resolve Yes on every cycle: the handshake can never change
// and every offer transfers unconditionally (LSE009).
func (r *Result) ConstHandshakes() []*core.Conn {
	return r.selectConns(func(f core.ConnFacts) bool {
		return f.Enable == core.FlowYes && f.Ack == core.FlowYes
	})
}

// Stalls returns the connections that provably violate the 3-signal
// protocol's progress expectation: the driver enables on every cycle and
// the receiver never acks, so offers stall forever (LSE012).
func (r *Result) Stalls() []*core.Conn {
	return r.selectConns(func(f core.ConnFacts) bool {
		return f.Enable == core.FlowYes && f.Ack == core.FlowNo
	})
}

// Component is one constant-foldable subnetlist: a connected set of
// instances whose every connection resolves to the same proven facts on
// every cycle. Frontier lists the member connections with exactly one
// endpoint inside the component — the seam a constant-folding transform
// would cut along; an empty frontier means the component is fully closed.
type Component struct {
	Members  []core.Instance
	Frontier []*core.Conn
}

// FoldableComponents groups the foldable instances — at least one
// connection, every connection's facts fully constant — into connected
// components over the shared-connection relation (LSE013). Members follow
// netlist order; components are ordered by their first member.
func (r *Result) FoldableComponents() []Component {
	foldable := make(map[core.Instance]bool)
	for _, inst := range r.insts {
		ok := true
		for _, c := range r.conns[inst] {
			if !r.facts.Conn(c.ID()).ConstResolved() {
				ok = false
				break
			}
		}
		foldable[inst] = ok
	}
	seen := make(map[core.Instance]bool)
	var out []Component
	for _, inst := range r.insts {
		if !foldable[inst] || seen[inst] {
			continue
		}
		// Flood the component across connections joining two foldable
		// instances.
		var members []core.Instance
		stack := []core.Instance{inst}
		seen[inst] = true
		inComp := map[core.Instance]bool{inst: true}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, cur)
			for _, c := range r.conns[cur] {
				sp, _ := c.Src()
				dp, _ := c.Dst()
				for _, nb := range []core.Instance{sp.Owner(), dp.Owner()} {
					if foldable[nb] && !seen[nb] {
						seen[nb] = true
						inComp[nb] = true
						stack = append(stack, nb)
					}
				}
			}
		}
		// Frontier: member connections whose other endpoint is outside.
		var frontier []*core.Conn
		seenConn := make(map[int]bool)
		for _, m := range members {
			for _, c := range r.conns[m] {
				if seenConn[c.ID()] {
					continue
				}
				seenConn[c.ID()] = true
				sp, _ := c.Src()
				dp, _ := c.Dst()
				if inComp[sp.Owner()] != inComp[dp.Owner()] {
					frontier = append(frontier, c)
				}
			}
		}
		out = append(out, Component{Members: members, Frontier: frontier})
	}
	return out
}
