package core

import "fmt"

// sparse.go is the engine's activity plan (SchedulerSparse): the static
// schedule of schedule.go, run each cycle over only the part of the
// netlist something was offered to. DESIGN.md Appendix C.2–C.3 is
// the long form. At compile time the connections are cut into
// combinational clusters — the connected components of the dependency
// graph (graph.go), which cuts every MarkSequential instance — inside
// which all same-cycle influence stays.
// At run time a cluster that resolves with no data offered records its
// idle signature; on later cycles, after all start handlers have run and
// before any reactive handler does, a cluster whose frontier reads as in
// its signature closes: its cells hold the signature, its members are
// not woken, its resolutions are credited in bulk. Everything else
// resolves through the ordinary sweep and the reference's default round
// for the residue. Soundness rests on one invariant: with no data
// offered, a reactive handler's drives are a function of the signals it
// observes — what depends on Now(), Rand() or state is driven from
// OnCycleStart, where the frontier observes it (WithActivityCheck finds
// the handlers that break the rule). A cluster never closes only when a
// reactive member has no connected input (LSE007).

// progSparse is the compiled cluster plan, shared read-only by every
// session of a Program. Per-cluster lists are cut from one slab each:
// cluster c owns slab[off[c]:off[c+1]].
type progSparse struct {
	clusterOf []int32 // conn id -> cluster; clusters are numbered by their lowest conn
	noInput   []bool  // cluster -> never closes: a reactive member has no connected input
	// cells holds plane cell indices (kind*nConns + conn id): a cluster's
	// frontier cells — all three signals of every conn adjacent to an
	// instance with a cycle-start handler, which may drive its own and read
	// any of them — then its interior cells, each run ascending by conn id.
	cellOff  []int32
	frontEnd []int32 // cells[cellOff[c]:frontEnd[c]] is the frontier
	cells    []int32
	memOff   []int32
	members  []int32 // reactive instances with a port in the cluster, ascending id

	decided    []int32 // the clusters that can close, ascending: the per-cycle decision list
	reactive   []int32 // every reactive instance, ascending id: the wake roster
	quietSeeds int     // instances with a start handler and no reactive one: active, never woken
}

const (
	actSigned uint8 = 1 << iota // the cluster has an idle signature
	actClosed                   // closed this cycle: its cells hold the signature
)

// actState is a session's activity state: the signatures and this cycle's
// decisions. It is derived — a full sweep drops it, snapshots omit it.
type actState struct {
	flags   []uint8    // cluster -> act* bits
	offered []uint64   // cluster -> stamp of the last cycle a data signal resolved Yes in it
	open    []uint64   // instance id -> stamp of the last cycle one of its clusters was open
	credit  [][3]int32 // cluster -> resolutions per kind a close credits (the start phase counted its own)
	pending []int32    // clusters to sign (in check mode: or compare) when this cycle has resolved
	// Running totals over the closed clusters: how many, their conns, and
	// their interior cells — what the next reset must step around.
	nClosed, closedConns, kept int
	// Allocated by the first signature, indexed like progSparse.cells.
	sig   []uint8 // the cell's status in its cluster's idle signature
	start []uint8 // what the start phase had left in the cell (frontier positions only)
}

// WithActivityCheck makes the engine evaluate every cluster it
// would have closed and compare the result, cell by cell, with the
// cluster's idle signature; a difference ends the Step with a
// *ContractError naming the cycle, the connection and signal, and the
// instance that drives it. It is the instrument a template author signs
// MarkSequential (or moves a drive into OnCycleStart) against, and what
// the differential tests run under. Nothing is skipped in this mode.
func WithActivityCheck() BuildOption {
	return func(b *Builder) { b.actCheck = true }
}

// buildSparse compiles the cluster plan in counted passes over a constant
// number of slabs.
func buildSparse(g *depGraph, instances []Instance, conns []*Conn, info *ScheduleInfo) *progSparse {
	n, ni := len(conns), len(instances)
	// Composites own no conns (exports alias child ports).
	skip := func(b *Base) bool {
		_, composite := b.self.(*Composite)
		return composite
	}

	// Union-find over the dependency graph's nodes: a conn joins its two
	// ports' nodes, so a cluster is a connected component of the graph,
	// cut at every marked instance exactly where the schedule cuts it.
	nodes := len(g.sccOf)
	parent := make([]int32, 2*nodes)
	label := parent[nodes:] // root -> 1 + its cluster, 0 until numbered
	for v := range nodes {
		parent[v] = int32(v)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for id := range conns {
		if ra, rb := find(g.src[id]), find(g.dst[id]); ra != rb {
			parent[max(ra, rb)] = min(ra, rb)
		}
	}

	// Number the clusters by their lowest conn.
	sp := &progSparse{clusterOf: make([]int32, n)}
	nc := 0
	for id := range conns {
		r := find(g.src[id])
		if label[r] == 0 {
			nc++
			label[r] = int32(nc)
		}
		sp.clusterOf[id] = label[r] - 1
	}
	tab := make([]int32, 5*nc+2) // one slab for the per-cluster tables
	cut := func(k int) []int32 {
		out := tab[:k:k]
		tab = tab[k:]
		return out
	}
	sp.cellOff, sp.memOff, sp.frontEnd = cut(nc+1), cut(nc+1), cut(nc)
	cur, seen := cut(nc), cut(nc) // fill cursors; the instance that last visited a cluster
	sp.noInput = make([]bool, nc)
	front := make([]bool, n)

	// Cells: a cluster's frontier conns first, then its interior, each run
	// ascending by conn id.
	starts := func(b *Base) bool { return b.start != nil && !skip(b) }
	for _, c := range conns {
		front[c.id] = starts(c.src.owner) || starts(c.dst.owner)
		sp.cellOff[sp.clusterOf[c.id]+1] += 3
		if front[c.id] {
			sp.frontEnd[sp.clusterOf[c.id]] += 3
		}
	}
	for cl := 0; cl < nc; cl++ {
		sp.cellOff[cl+1] += sp.cellOff[cl]
		sp.frontEnd[cl] += sp.cellOff[cl]
		cur[cl], seen[cl] = sp.cellOff[cl], sp.frontEnd[cl] // frontier and interior cursors
	}
	sp.cells = make([]int32, 3*n)
	for id := 0; id < n; id++ {
		at := &seen[sp.clusterOf[id]]
		if front[id] {
			at = &cur[sp.clusterOf[id]]
		}
		for k := 0; k < 3; k++ {
			sp.cells[*at] = int32(k*n + id)
			*at++
		}
	}

	// eachCluster visits the distinct clusters b's own ports touch; mark
	// tells this visit from every other instance's and pass's.
	clear(seen)
	eachCluster := func(b *Base, mark int32, fn func(cl int32)) {
		for _, p := range b.portList {
			for _, c := range p.conns {
				if p.owner != b {
					continue
				}
				if cl := sp.clusterOf[c.id]; seen[cl] != mark {
					seen[cl] = mark
					fn(cl)
				}
				break // a port's conns are one cluster
			}
		}
	}
	// Pass 1: seeds, member counts, and the clusters that never close.
	nReact, nMembers := 0, 0
	for i, inst := range instances {
		b := inst.base()
		if skip(b) {
			continue
		}
		noInput := b.react != nil && connectedInputs(b) == 0
		if b.start != nil || noInput {
			info.AlwaysActive++
		}
		if b.react == nil {
			if b.start != nil {
				sp.quietSeeds++
			}
			continue
		}
		nReact++
		eachCluster(b, int32(i+1), func(cl int32) {
			sp.memOff[cl+1]++
			nMembers++
			sp.noInput[cl] = sp.noInput[cl] || noInput
		})
	}
	// A reactive instance is a member once per cluster its ports touch:
	// with marked instances that can exceed the conn count.
	lists := make([]int32, 0, nc+nReact+nMembers)
	largest := int32(-1)
	info.ClusterSizes = make([]int, 0, nc)
	for cl := int32(0); int(cl) < nc; cl++ {
		sp.memOff[cl+1] += sp.memOff[cl]
		cur[cl] = sp.memOff[cl]
		size := int(sp.cellOff[cl+1]-sp.cellOff[cl]) / 3
		if sp.noInput[cl] {
			info.NoInputClusters++
		} else {
			lists = append(lists, cl)
			info.ClosableClusters++
		}
		info.Clusters++
		info.ClusterSizes = append(info.ClusterSizes, size)
		if size > info.LargestCluster {
			info.LargestCluster, largest = size, cl
		}
	}
	sp.decided = lists[:len(lists):len(lists)]
	sp.members = lists[len(lists) : len(lists)+int(sp.memOff[nc]) : len(lists)+int(sp.memOff[nc])]
	sp.reactive = lists[len(lists)+len(sp.members) : len(lists)+len(sp.members)]
	// Pass 2: members, the wake roster, who is active at all, and which
	// unmarked start-bearing multi-port instances glue the largest cluster.
	for i, inst := range instances {
		b := inst.base()
		if skip(b) {
			continue
		}
		glues := false
		eachCluster(b, -int32(i+1), func(cl int32) {
			glues = glues || cl == largest
			if b.react != nil {
				sp.members[cur[cl]] = int32(i)
				cur[cl]++
			}
		})
		if b.react != nil {
			sp.reactive = append(sp.reactive, int32(i))
		}
		if b.start != nil || b.react != nil {
			info.ActiveInsts++
		}
		if glues && b.start != nil && !b.sequential {
			ports := 0
			for _, p := range b.portList {
				if p.owner == b && len(p.conns) > 0 {
					ports++
				}
			}
			if ports > 1 {
				info.GlueInstances = append(info.GlueInstances, b.name)
			}
		}
	}
	info.GatedInsts = ni - info.ActiveInsts
	return sp
}

// connectedInputs counts the connections attached to an instance's In
// ports. A reactive instance with none keeps its cluster open (LSE007).
func connectedInputs(b *Base) int {
	n := 0
	for _, p := range b.portList {
		if p.owner == b && p.dir == In {
			n += len(p.conns)
		}
	}
	return n
}

// InvalidateActivity forces the next Step to run a full sweep: every
// connection is reset, every instance woken and every idle signature
// dropped. Harnesses that mutate module state between cycles outside the
// handler phases (e.g. poking registers before resuming) must call it so
// the engine cannot replay a resolution the mutation invalidated. The
// reference replays nothing and ignores it.
func (s *Sim) InvalidateActivity() { s.needFull = true }

// dropSignatures forgets every signature and decision: the full sweep
// under way re-establishes the whole plane.
func (s *Sim) dropSignatures() {
	if a := s.act; a != nil {
		clear(a.flags)
		a.nClosed, a.closedConns, a.kept = 0, 0, 0
	}
}

// stamp identifies the cycle under way in actState.offered and open.
func (s *Sim) stamp() uint64 { return s.cycle + 1 }

// resetOpen is the steady cycle's reset. Clusters that were open are
// cleared whole; clusters that were closed keep their interior and give up
// only their frontier, so the start handlers run against a cleared plane
// wherever they can look. When no cell is to be kept — nothing closed, or
// only clusters that are all frontier — the reset is the full sweep's:
// one memclr.
func (s *Sim) resetOpen() {
	sp, a := s.sparse, s.act
	nc := len(sp.noInput)
	if a == nil {
		a = &actState{
			flags:   make([]uint8, nc),
			offered: make([]uint64, nc),
			open:    make([]uint64, len(s.bases)),
			credit:  make([][3]int32, nc),
		}
		// Woken every cycle, by a stamp no cycle reaches: reactive
		// instances in no cluster, and the members of never-closing ones.
		set := func(never bool, v uint64) {
			for cl, ni := range sp.noInput {
				if ni == never {
					for _, id := range sp.members[sp.memOff[cl]:sp.memOff[cl+1]] {
						a.open[id] = v
					}
				}
			}
		}
		for _, id := range sp.reactive {
			a.open[id] = ^uint64(0)
		}
		set(false, 0)
		set(true, ^uint64(0))
		s.act = a
	}
	if s.actCheck || a.kept == 0 {
		s.plane.clearStatus()
		return
	}
	cells := s.plane.cells
	for cl := range nc {
		hi := sp.cellOff[cl+1]
		if a.flags[cl]&actClosed != 0 {
			hi = sp.frontEnd[cl]
		}
		for _, cell := range sp.cells[sp.cellOff[cl]:hi] {
			cells[cell] = uint32(Unknown)
		}
	}
}

// wakeOpen runs between the start phase and the react phase of a steady
// cycle: it decides which clusters close, restores their signatures,
// and wakes the reactive members of every other cluster — start-phase
// wakes of instances all of whose clusters closed are dropped, the rest
// keep their place in the queue.
func (s *Sim) wakeOpen() {
	sp, a := s.sparse, s.act
	cells, stamp := s.plane.cells, s.stamp()
	a.pending = a.pending[:0]
	for _, cl := range sp.decided {
		lo, fe, hi := sp.cellOff[cl], sp.frontEnd[cl], sp.cellOff[cl+1]
		fl := a.flags[cl]
		closes := false
		switch {
		case fl&actSigned != 0:
			closes = true
			for i := lo; i < fe; i++ {
				if uint8(cells[sp.cells[i]]) != a.start[i] {
					closes = false
					break
				}
			}
			if closes && s.actCheck {
				a.pending = append(a.pending, cl) // evaluate it anyway, and compare
				closes = false
			}
		case a.offered[cl] != stamp:
			// Idle so far and unsigned: remember what the start phase
			// left, and sign when the cycle has resolved data-free.
			if a.sig == nil {
				a.sig = make([]uint8, len(cells))
				a.start = make([]uint8, len(cells))
			}
			for i := lo; i < fe; i++ {
				a.start[i] = uint8(cells[sp.cells[i]])
			}
			a.pending = append(a.pending, cl)
		}
		if !closes {
			if fl&actClosed != 0 {
				for _, cell := range sp.cells[fe:hi] {
					cells[cell] = uint32(Unknown)
				}
				a.nClosed--
				a.closedConns -= int(hi-lo) / 3
				a.kept -= int(hi - fe)
				a.flags[cl] = fl &^ actClosed
			}
			for _, id := range sp.members[sp.memOff[cl]:sp.memOff[cl+1]] {
				a.open[id] = stamp
			}
			continue
		}
		// Frontier cells hold what the start phase drove; a cluster that
		// was open was cleared whole and needs its interior too.
		if fl&actClosed == 0 {
			a.nClosed++
			a.closedConns += int(hi-lo) / 3
			a.kept += int(hi - fe)
			a.flags[cl] = fl | actClosed
			fe = hi
		}
		for i := lo; i < fe; i++ {
			cells[sp.cells[i]] = uint32(a.sig[i])
		}
		cr := &a.credit[cl]
		s.resolved[SigData] += int(cr[SigData])
		s.resolved[SigEnable] += int(cr[SigEnable])
		s.resolved[SigAck] += int(cr[SigAck])
	}
	if !s.actCheck && a.nClosed > 0 {
		s.queue = s.keepOpen(s.queue, stamp)
		s.acks = s.keepOpen(s.acks, stamp)
	}
	woken := 0
	for _, id := range sp.reactive {
		if s.actCheck || a.open[id] >= stamp {
			woken++
			s.wake(SigData, s.bases[id])
		}
	}
	if m := s.metrics; m != nil {
		m.activeInsts += uint64(sp.quietSeeds + woken)
		m.skippedWakes += uint64(len(sp.reactive) - woken)
		m.closedClusters += uint64(a.nClosed)
		m.closedConns += uint64(a.closedConns)
	}
}

// keepOpen drops from a start-phase work queue the instances all of whose
// clusters closed this cycle; the rest keep their order.
func (s *Sim) keepOpen(q []*Base, stamp uint64) []*Base {
	keep := q[:0]
	for _, b := range q {
		if s.act.open[b.id] >= stamp {
			keep = append(keep, b)
		} else {
			s.unschedule(b)
		}
	}
	return keep
}

// settleClusters runs when a steady cycle has fully resolved: pending
// clusters that stayed data-free are signed; in check mode the signed
// ones among them are those it kept open, and are compared instead.
func (s *Sim) settleClusters() {
	sp, a := s.sparse, s.act
	cells, stamp, n := s.plane.cells, s.stamp(), int32(len(s.conns))
	for _, cl := range a.pending {
		lo, fe, hi := sp.cellOff[cl], sp.frontEnd[cl], sp.cellOff[cl+1]
		if a.flags[cl]&actSigned != 0 {
			for i := lo; i < hi; i++ {
				if cell := sp.cells[i]; uint8(cells[cell]) != a.sig[i] {
					s.checkFailed(s.conns[cell%n], SigKind(cell/n), Status(a.sig[i]))
				}
			}
			continue
		}
		if a.offered[cl] == stamp {
			continue // data arrived in the react phase after all
		}
		cr := [3]int32{(hi - lo) / 3, (hi - lo) / 3, (hi - lo) / 3}
		for i := lo; i < fe; i++ {
			if a.start[i] != uint8(Unknown) {
				cr[sp.cells[i]/n]--
			}
		}
		for i := lo; i < hi; i++ {
			a.sig[i] = uint8(cells[sp.cells[i]])
		}
		a.credit[cl] = cr
		a.flags[cl] |= actSigned
	}
}

// checkFailed reports the first cell of a cluster that resolved
// differently from its idle signature although the frontier was the same.
func (s *Sim) checkFailed(c *Conn, k SigKind, want Status) {
	driver := c.src.owner
	if k == SigAck {
		driver = c.dst.owner
	}
	contractPanic("activity check", c.String(), fmt.Sprintf(
		"cycle %d: %s resolved %s, but its cluster's idle signature — recorded with the same cycle-start signals and no data offered — has %s; "+
			"%q drives it: if its reactive handler reads Now(), Rand() or state that changes without an input changing, make that decision in OnCycleStart; "+
			"if an instance of the cluster is marked MarkSequential but passes a signal between its ports within a cycle, remove the mark",
		s.cycle, k, c.status(k), want, driver.name))
}
