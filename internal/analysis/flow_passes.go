package analysis

import (
	"strings"
	"sync"

	"liberty/internal/analysis/flow"
	core "liberty/internal/core"
)

// flowFor memoizes the dataflow analysis for the simulator currently
// being linted, so the four flow-backed passes (LSE009, LSE010, LSE012,
// LSE013) share one fixed-point run instead of re-analyzing per pass. A
// single entry is enough: AnalyzeSim runs the passes back to back over one
// simulator.
var flowMemo struct {
	mu  sync.Mutex
	sim *core.Sim
	res *flow.Result
}

func flowFor(s *core.Sim) *flow.Result {
	flowMemo.mu.Lock()
	defer flowMemo.mu.Unlock()
	if flowMemo.sim != s {
		flowMemo.res = flow.Analyze(s)
		flowMemo.sim = s
	}
	return flowMemo.res
}

// sinkReachability computes backward reachability from the netlist's
// sinks (instances with connections but no outgoing ones) over the
// connection graph. Shared by passDeadStructure (LSE004 reports the
// unreachable) and passFlowDead (LSE010 reports only the reachable, so
// the two passes never double-flag an instance).
func sinkReachability(s *core.Sim) (hasConn map[core.Instance]bool, reach map[core.Instance]bool) {
	insts := s.Instances()
	outDeg := make(map[core.Instance]int, len(insts))
	hasConn = make(map[core.Instance]bool, len(insts))
	preds := make(map[core.Instance][]core.Instance, len(insts))
	for _, c := range s.Conns() {
		sp, _ := c.Src()
		dp, _ := c.Dst()
		src, dst := sp.Owner(), dp.Owner()
		outDeg[src]++
		hasConn[src], hasConn[dst] = true, true
		preds[dst] = append(preds[dst], src)
	}
	reach = make(map[core.Instance]bool, len(insts))
	var stack []core.Instance
	for _, inst := range insts {
		if _, isComposite := asComposite(inst); isComposite {
			continue
		}
		if hasConn[inst] && outDeg[inst] == 0 {
			reach[inst] = true
			stack = append(stack, inst)
		}
	}
	for len(stack) > 0 {
		inst := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[inst] {
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	return hasConn, reach
}

// passConstHandshake (LSE009) reports connections whose handshake is
// provably constant: enable and ack both resolve Yes on every cycle, so
// the negotiation the 3-signal protocol pays for can never change the
// outcome. Informational — often fine, but a hint that the connection
// could be modeled as an unconditional wire or folded away (LSE013).
func passConstHandshake(s *core.Sim, r *Report) {
	res := flowFor(s)
	for _, c := range res.ConstHandshakes() {
		r.Addf("LSE009", Info, c.SourcePos(), c.String(),
			"constant-driven handshake: enable and ack both provably resolve yes on every cycle — the negotiation never varies")
	}
}

// passFlowDead (LSE010) reports structure the dataflow lattice proves
// dead even though the connection graph says it is alive: connections
// whose data, enable and ack all resolve No on every cycle, and
// instances every one of whose connections is dead. LSE004's purely
// structural reachability cannot see these — a rate-0 source feeding a
// queue chain into a sink reaches the sink just fine; it just never
// sends anything. Instances LSE004 already flags (no path to a sink)
// are skipped here.
func passFlowDead(s *core.Sim, r *Report) {
	res := flowFor(s)
	for _, c := range res.DeadConns() {
		r.Addf("LSE010", Warning, c.SourcePos(), c.String(),
			"statically dead connection: data, enable and ack all provably resolve no on every cycle — nothing can ever transfer here")
	}
	_, reach := sinkReachability(s)
	for _, inst := range res.DeadInstances() {
		if !reach[inst] {
			continue // already LSE004: no path to a sink
		}
		r.Addf("LSE010", Warning, posOf(inst), inst.Name(),
			"statically dead instance: %q is alive in the connection graph but every one of its connections is provably dead — delete it", inst.Name())
	}
}

// passProtocolStall (LSE012) reports provable protocol-contract
// violations: the driver enables on every cycle and the receiver never
// acknowledges, so the same offer stalls forever and upstream state
// never drains. Unlike a transient back-pressure stall this cannot
// resolve at runtime — the receiver's control provably refuses.
func passProtocolStall(s *core.Sim, r *Report) {
	res := flowFor(s)
	for _, c := range res.Stalls() {
		r.Addf("LSE012", Warning, c.SourcePos(), c.String(),
			"protocol contract violation: driver provably enables on every cycle but the sink provably never acks — the offer stalls forever and upstream never drains")
	}
}

// passFoldable (LSE013) reports constant-foldable subnetlists: connected
// components of instances whose every connection resolves to the same
// proven facts on every cycle. Such a component computes nothing that
// varies — it could be replaced by its constant boundary behavior. The
// message names the members and the frontier connections a folding
// transform would cut along.
func passFoldable(s *core.Sim, r *Report) {
	res := flowFor(s)
	for _, comp := range res.FoldableComponents() {
		names := make([]string, len(comp.Members))
		for i, m := range comp.Members {
			names[i] = m.Name()
		}
		frontier := "fully closed (no connections cross its boundary)"
		if len(comp.Frontier) > 0 {
			fs := make([]string, len(comp.Frontier))
			for i, c := range comp.Frontier {
				fs[i] = c.String()
			}
			frontier = "frontier: " + strings.Join(fs, ", ")
		}
		r.Addf("LSE013", Info, posOf(comp.Members[0]), comp.Members[0].Name(),
			"constant-foldable subnetlist: every connection among %s provably resolves to the same facts on every cycle; %s",
			strings.Join(names, ", "), frontier)
	}
}
