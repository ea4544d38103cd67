package core

// graph.go builds the netlist's one dependency graph at compile time.
// Default control has a static dependency structure: a connection's
// forward signals (data, enable) may be defaulted only once the inputs its
// source module could be mirroring have resolved, and its ack only once the
// acks downstream of its receiver have. Both relations factor through the
// graph's nodes — one per instance, except that a MarkSequential instance,
// which promises no same-cycle path between its ports, gets one node per
// connected port — and each connection is an edge from its source port's
// node to its destination port's node. Tarjan's strongly-connected-
// components algorithm finds the cyclic regions; levelizing the acyclic
// condensation yields the static sweep (schedule.go), the graph's
// connected components are the cluster plan (sparse.go), and Sim.SCCs
// republishes the condensation to LSE002. All three cut a marked instance
// the same way because they read the same graph.

// depGraph is the dependency graph, in counted int32 slabs. It is
// transient: compileProgram builds it once for the schedule and the
// cluster plan, Sim.SCCs once per call.
type depGraph struct {
	nodeOff  []int32 // instance id -> its nodes, nodeOff[id] to nodeOff[id+1]-1
	src, dst []int32 // conn id -> the node of its source / destination port
	edgeOff  []int32 // node -> its out-edges, edges[edgeOff[v]:edgeOff[v+1]]
	edges    []int32 // conn ids, ascending per node
	sccOf    []int32 // node -> SCC, numbered in reverse topological order
	order    []int32 // nodes in Tarjan's pop order: SCC 0's, then SCC 1's, ...
	cyclic   []bool  // SCC -> some conn has both endpoints in it (a cycle or a self-loop)
	largest  int     // the most nodes in one SCC
}

// buildGraph constructs the graph and runs an iterative Tarjan SCC pass
// (iterative so arbitrarily deep pipelines cannot overflow the stack).
// Tarjan emits SCCs in reverse topological order: for every edge u->v
// crossing components, sccOf[v] < sccOf[u].
func buildGraph(instances []Instance, conns []*Conn) *depGraph {
	ni, n := len(instances), len(conns)
	slab := make([]int32, ni+1+3*n)
	g := &depGraph{nodeOff: slab[:ni+1], src: slab[ni+1 : ni+1+n],
		dst: slab[ni+1+n : ni+1+2*n], edges: slab[ni+1+2*n:]}
	nodes := int32(0)
	for id, inst := range instances {
		b := inst.base()
		g.nodeOff[id] = nodes
		nodes++
		fresh := true // the node just opened has no port yet
		for _, p := range b.portList {
			if p.owner != b || len(p.conns) == 0 {
				continue // composites own no conns: exports alias child ports
			}
			if b.sequential && !fresh {
				nodes++
			}
			fresh = false
			end := g.dst
			if p.dir == Out {
				end = g.src
			}
			for _, c := range p.conns {
				end[c.id] = nodes - 1
			}
		}
	}
	g.nodeOff[ni] = nodes

	// CSR out-edges: count into edgeOff[v+2], sum, then fill through
	// edgeOff[v+1], which leaves edgeOff[v+1] at v's end.
	nn := int(nodes)
	work := make([]int32, 6*nn+2)
	g.edgeOff, g.sccOf, g.order = work[:nn+2], work[nn+2:2*nn+2], work[2*nn+2:2*nn+2:3*nn+2]
	index, low, stack := work[3*nn+2:4*nn+2], work[4*nn+2:5*nn+2], work[5*nn+2:5*nn+2]
	for _, v := range g.src {
		g.edgeOff[v+2]++
	}
	for v := 2; v < nn+2; v++ {
		g.edgeOff[v] += g.edgeOff[v-1]
	}
	for id, v := range g.src {
		g.edges[g.edgeOff[v+1]] = int32(id)
		g.edgeOff[v+1]++
	}
	g.edgeOff = g.edgeOff[:nn+1]

	const unvisited = -1
	for v := range index {
		index[v], g.sccOf[v] = unvisited, unvisited
	}
	// A visited node is on Tarjan's stack until its SCC is numbered.
	type frame struct{ v, e int32 } // e: the next out-edge to explore
	call := make([]frame, 0, nn)
	next, nSCC := int32(0), int32(0)
	for root := int32(0); root < nodes; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call, frame{root, g.edgeOff[root]})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.e < g.edgeOff[v+1] {
				w := g.dst[g.edges[f.e]]
				f.e++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					call = append(call, frame{w, g.edgeOff[w]})
				} else if g.sccOf[w] == unvisited && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is fully explored.
			if low[v] == index[v] {
				size := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					g.sccOf[w] = nSCC
					g.order = append(g.order, w)
					size++
					if w == v {
						break
					}
				}
				nSCC++
				g.largest = max(g.largest, size)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				low[p] = min(low[p], low[v])
			}
		}
	}

	g.cyclic = make([]bool, nSCC)
	for id, v := range g.src {
		if g.sccOf[v] == g.sccOf[g.dst[id]] {
			g.cyclic[g.sccOf[v]] = true
		}
	}
	return g
}

// SCC is one strongly connected component of the dependency graph, as
// exposed to analysis tooling (Sim.SCCs). The engine's static schedule,
// its cluster plan and the combinational-cycle diagnostics
// (internal/analysis pass LSE002) share this graph — there is exactly one
// notion of "cycle" in the system.
type SCC struct {
	// Members are the instances with a node in the component, in netlist
	// id order. A MarkSequential instance has a node per connected port,
	// each its own acyclic component, so it is a member of several.
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

// SCCs condenses the simulator's dependency graph into strongly connected
// components, returned in topological order (sources before sinks). A
// MarkSequential instance is listed in one acyclic SCC per connected port.
func (s *Sim) SCCs() []SCC {
	g := buildGraph(s.instances, s.conns)
	out := make([]SCC, len(g.cyclic))
	// Tarjan numbers SCCs in reverse topological order; flip it.
	at := func(scc int32) *SCC { return &out[len(out)-1-int(scc)] }
	for id, inst := range s.instances {
		for v := g.nodeOff[id]; v < g.nodeOff[id+1]; v++ {
			c := at(g.sccOf[v])
			c.Members = append(c.Members, inst)
			c.Cyclic = g.cyclic[g.sccOf[v]]
		}
	}
	for id, conn := range s.conns {
		if scc := g.sccOf[g.src[id]]; scc == g.sccOf[g.dst[id]] {
			c := at(scc)
			c.Internal = append(c.Internal, conn)
			if c.BreakSite == nil {
				c.BreakSite = conn // conns are id-ordered: the first is the lowest
			}
		}
	}
	return out
}

// levelize returns each SCC's forward level (longest chain of SCCs before
// it) and ack level (longest chain after it), or -1 where the SCC is
// tainted: cyclic or — forward — downstream of a cyclic SCC, or — ack —
// upstream of one. Tainted connections cannot be statically ordered: the
// reference's default round resolves them.
func (g *depGraph) levelize() (fwd, ack []int32) {
	nSCC := len(g.cyclic)
	lv := make([]int32, 2*nSCC)
	fwd, ack = lv[:nSCC], lv[nSCC:]
	for s, cyc := range g.cyclic {
		if cyc {
			fwd[s], ack[s] = -1, -1
		}
	}
	// Tarjan's pop order keeps each SCC contiguous, SCC 0 first: walked
	// backwards it is topological (sources first), forwards the reverse.
	for i := len(g.order) - 1; i >= 0; i-- {
		v := g.order[i]
		for _, id := range g.edges[g.edgeOff[v]:g.edgeOff[v+1]] {
			if s, d := g.sccOf[v], g.sccOf[g.dst[id]]; s != d {
				fwd[d] = relax(fwd[d], fwd[s])
			}
		}
	}
	for _, v := range g.order {
		for _, id := range g.edges[g.edgeOff[v]:g.edgeOff[v+1]] {
			if s, d := g.sccOf[v], g.sccOf[g.dst[id]]; s != d {
				ack[s] = relax(ack[s], ack[d])
			}
		}
	}
	return fwd, ack
}

// relax lifts level l past a neighbour at level from; taint (-1) spreads.
func relax(l, from int32) int32 {
	if from < 0 || l < 0 {
		return -1
	}
	return max(l, from+1)
}
