package core

// graph.go analyzes the netlist's module-level signal dependency graph at
// Build time. Default-control resolution has a static dependency
// structure: a connection's forward signals (data, enable) may be
// defaulted only once every same-kind input of its driving module has
// resolved, and its ack only once every ack of its receiving module's
// outputs has resolved. Both relations factor through modules, so the
// dependency graph of all connections condenses to the module graph:
// one node per instance, one forward edge per connection. Tarjan's
// strongly-connected-components algorithm identifies the cyclic regions;
// levelizing the acyclic condensation yields a static resolution order
// the engine replays every cycle without re-discovering it.

// moduleGraph is the condensed module-level connection graph.
type moduleGraph struct {
	n     int     // number of modules (instances)
	succ  [][]int // forward edges: driving module -> receiving module, per conn
	sccOf []int   // module id -> SCC index, in reverse topological order
	nSCC  int
	// cyclic[scc] reports whether the SCC contains any connection both of
	// whose endpoints lie inside it — a multi-module cycle or a self-loop.
	cyclic []bool
	// sccSize[scc] is the number of member modules.
	sccSize []int
}

// buildModuleGraph constructs the graph and runs an iterative Tarjan SCC
// pass (iterative so arbitrarily deep pipelines cannot overflow the
// stack). Tarjan emits SCCs in reverse topological order: for every edge
// u->v crossing components, sccOf[v] < sccOf[u].
func buildModuleGraph(instances []Instance, conns []*Conn) *moduleGraph {
	g := &moduleGraph{n: len(instances)}
	g.succ = make([][]int, g.n)
	for _, c := range conns {
		si := c.src.owner.id
		g.succ[si] = append(g.succ[si], c.dst.owner.id)
	}

	const unvisited = -1
	index := make([]int, g.n)
	lowlink := make([]int, g.n)
	onStack := make([]bool, g.n)
	g.sccOf = make([]int, g.n)
	for i := range index {
		index[i] = unvisited
		g.sccOf[i] = unvisited
	}
	var stack []int // Tarjan's component stack
	next := 0

	type frame struct {
		v  int
		ei int // next successor edge to explore
	}
	var call []frame
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{v: root})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.ei < len(g.succ[v]) {
				w := g.succ[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			// v is fully explored.
			if lowlink[v] == index[v] {
				scc := g.nSCC
				g.nSCC++
				size := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					g.sccOf[w] = scc
					size++
					if w == v {
						break
					}
				}
				g.sccSize = append(g.sccSize, size)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
		}
	}

	g.cyclic = make([]bool, g.nSCC)
	for _, c := range conns {
		if g.sccOf[c.src.owner.id] == g.sccOf[c.dst.owner.id] {
			g.cyclic[g.sccOf[c.src.owner.id]] = true
		}
	}
	return g
}

// SCC is one strongly connected component of the module-level connection
// graph, as exposed to analysis tooling (Sim.SCCs). The engine's static
// schedule and the combinational-cycle diagnostics (internal/analysis
// pass LSE002) share this condensation — there is exactly one notion of
// "cycle" in the system.
type SCC struct {
	// Members are the component's instances, in netlist id order.
	Members []Instance
	// Cyclic reports whether the component contains a genuine dependency
	// cycle: a connection with both endpoints inside it (including
	// self-loops). Singleton components without self-loops are acyclic.
	Cyclic bool
	// Internal are the connections with both endpoints inside the
	// component, in connection id order. Empty unless Cyclic.
	Internal []*Conn
	// BreakSite is the connection where default resolution breaks the
	// cycle first — the lowest-id internal connection, the same site every
	// scheduler picks. Nil unless Cyclic.
	BreakSite *Conn
}

// SCCs condenses the simulator's module graph into strongly connected
// components, returned in topological order (sources before sinks).
func (s *Sim) SCCs() []SCC {
	g := buildModuleGraph(s.instances, s.conns)
	out := make([]SCC, g.nSCC)
	// Tarjan numbers SCCs in reverse topological order; flip it.
	at := func(scc int) *SCC { return &out[g.nSCC-1-scc] }
	for id, inst := range s.instances {
		c := at(g.sccOf[id])
		c.Members = append(c.Members, inst)
		c.Cyclic = g.cyclic[g.sccOf[id]]
	}
	for _, conn := range s.conns {
		scc := g.sccOf[conn.src.owner.id]
		if scc != g.sccOf[conn.dst.owner.id] {
			continue
		}
		c := at(scc)
		c.Internal = append(c.Internal, conn)
		if c.BreakSite == nil || conn.id < c.BreakSite.id {
			c.BreakSite = conn
		}
	}
	return out
}

// levelize computes, per SCC, its forward level (longest predecessor
// chain), ack level (longest successor chain), and taint flags: an SCC is
// forward-tainted when it is cyclic or any ancestor is, ack-tainted when
// it is cyclic or any descendant is. Tainted connections cannot be
// statically ordered: the reference's default round resolves them.
func (g *moduleGraph) levelize(conns []*Conn) (fwdLevel, ackLevel []int, fwdTaint, ackTaint []bool) {
	fwdLevel = make([]int, g.nSCC)
	ackLevel = make([]int, g.nSCC)
	fwdTaint = make([]bool, g.nSCC)
	ackTaint = make([]bool, g.nSCC)
	copy(fwdTaint, g.cyclic)
	copy(ackTaint, g.cyclic)

	// Condensed cross-SCC edges, deduplicated lazily (duplicates only
	// cost a wasted max()).
	csucc := make([][]int, g.nSCC)
	for _, c := range conns {
		s, d := g.sccOf[c.src.owner.id], g.sccOf[c.dst.owner.id]
		if s != d {
			csucc[s] = append(csucc[s], d)
		}
	}
	// Descending SCC index is topological order (sources first): relax
	// forward levels and propagate forward taint.
	for s := g.nSCC - 1; s >= 0; s-- {
		for _, d := range csucc[s] {
			if fwdLevel[s]+1 > fwdLevel[d] {
				fwdLevel[d] = fwdLevel[s] + 1
			}
			if fwdTaint[s] {
				fwdTaint[d] = true
			}
		}
	}
	// Ascending SCC index is reverse topological order (sinks first):
	// relax ack levels and propagate ack taint backward.
	for s := 0; s < g.nSCC; s++ {
		for _, d := range csucc[s] {
			if ackLevel[d]+1 > ackLevel[s] {
				ackLevel[s] = ackLevel[d] + 1
			}
			if ackTaint[d] {
				ackTaint[s] = true
			}
		}
	}
	return fwdLevel, ackLevel, fwdTaint, ackTaint
}
