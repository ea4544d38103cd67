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
// idle signature; on later cycles, after the start handlers have run and
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
//
// The reset and the decision walk a per-cycle worklist — the clusters
// open after the last decision and those with an awake seed — not the
// whole plan: a closed cluster whose seeds (its start-bearing instances)
// all sleep (Base.Sleep, sleep.go) keeps its cells from cycle to cycle
// untouched, since the start phase would give it the same frontier and
// the decision the same signature. A seed that falls asleep leaves its
// clusters on the worklist for one more decision, the one that compares
// its idle drives. The member wake stays one scan of the
// reactive roster: on a loaded model most members wake, and the scan is
// a load per member.

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

	decided    []int32 // the clusters that can close, ascending
	reactive   []int32 // every reactive instance, ascending id: the wake roster
	quietSeeds int     // instances with a start handler and no reactive one: active, never woken

	seeds seedPlan
}

// seedPlan is the part of the cluster plan the worklist and sleeping
// read: the number of seeds of each cluster (its start-bearing
// instances), the clusters of each seed, and the clusters that never
// close. buildSparse builds it in its two passes, cut from its slabs.
type seedPlan struct {
	seeds []int32 // cluster -> how many seeds it has
	at    []int32 // instance id -> its run of cls
	cls   []int32 // the clusters each seed touches, in port order
	never []int32 // the clusters that never close, ascending: reset every cycle
}

// seedClusters lists the clusters instance id seeds (touches with a port,
// having a start handler).
func (pl *seedPlan) seedClusters(id int) []int32 { return pl.cls[pl.at[id]:pl.at[id+1]] }

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
	// The worklist: the clusters this cycle's reset and decision visit —
	// those open after the last decision, and those with an awake seed.
	// A closed cluster whose seeds all sleep is left alone (DESIGN.md
	// Appendix C.3). next is the next cycle's, built as this one runs;
	// listed holds the stamp of the worklist a cluster is on.
	work, next []int32
	listed     []uint64
	allWork    bool    // the next worklist is every decided cluster (after a full sweep)
	awake      []int32 // cluster -> seeds awake
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
	tab := make([]int32, 6*nc+ni+3) // one slab for the per-cluster and per-seed tables
	cut := func(k int) []int32 {
		out := tab[:k:k]
		tab = tab[k:]
		return out
	}
	pl := &sp.seeds
	sp.cellOff, sp.memOff, sp.frontEnd = cut(nc+1), cut(nc+1), cut(nc)
	pl.seeds, pl.at = cut(nc), cut(ni+1)
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

	clear(seen)
	eachCluster := func(b *Base, mark int32, fn func(cl int32)) { sp.eachCluster(b, seen, mark, fn) }
	// Pass 1: member and seed counts, and the clusters that never close.
	nReact, nMembers, nSeeded := 0, 0, 0
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
			if b.start == nil {
				continue
			}
			sp.quietSeeds++
		} else {
			nReact++
		}
		eachCluster(b, int32(i+1), func(cl int32) {
			if b.start != nil {
				pl.seeds[cl]++
				pl.at[i+1]++
				nSeeded++
			}
			if b.react != nil {
				sp.memOff[cl+1]++
				nMembers++
				sp.noInput[cl] = sp.noInput[cl] || noInput
			}
		})
	}
	for i := range ni {
		pl.at[i+1] += pl.at[i]
	}
	// A reactive instance is a member once per cluster its ports touch:
	// with marked instances that can exceed the conn count.
	lists := make([]int32, 0, nc+nMembers+nReact+nSeeded)
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
	for cl, never := range sp.noInput {
		if never {
			lists = append(lists, int32(cl))
		}
	}
	pl.never = lists[len(sp.decided):nc:nc]
	sp.members = lists[nc : nc+nMembers : nc+nMembers]
	sp.reactive = lists[nc+nMembers : nc+nMembers : nc+nMembers+nReact]
	pl.cls = lists[nc+nMembers+nReact : nc+nMembers+nReact+nSeeded]
	// Pass 2: members, the seeds' clusters, the wake roster, who is active
	// at all, and which unmarked start-bearing multi-port instances glue
	// the largest cluster.
	for i, inst := range instances {
		b := inst.base()
		if skip(b) {
			continue
		}
		glues, at := false, pl.at[i]
		eachCluster(b, -int32(i+1), func(cl int32) {
			glues = glues || cl == largest
			if b.react != nil {
				sp.members[cur[cl]] = int32(i)
				cur[cl]++
			}
			if b.start != nil {
				pl.cls[at] = cl
				at++
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

// eachCluster visits the distinct clusters b's own ports touch; mark,
// recorded per cluster in seen, tells this visit from every other.
func (sp *progSparse) eachCluster(b *Base, seen []int32, mark int32, fn func(cl int32)) {
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
// under way re-establishes the whole plane, with every instance awake.
func (s *Sim) dropSignatures() {
	if a := s.act; a != nil {
		clear(a.flags)
		a.nClosed, a.closedConns, a.kept = 0, 0, 0
		a.allWork = true
	}
}

// stamp identifies the cycle under way in actState.offered, open and
// listed, and in Base.seen.
func (s *Sim) stamp() uint64 { return s.cycle + 1 }

// newActState allocates the activity state at the first steady cycle,
// whose worklist is every decided cluster.
func (s *Sim) newActState() *actState {
	sp := s.sparse
	nc := len(sp.noInput)
	a := &actState{
		flags:   make([]uint8, nc),
		offered: make([]uint64, nc),
		open:    make([]uint64, len(s.bases)),
		credit:  make([][3]int32, nc),
		listed:  make([]uint64, nc),
		awake:   make([]int32, nc),
		allWork: true,
	}
	// Woken every cycle, by a stamp no cycle reaches: reactive instances
	// in no cluster, and the members of never-closing ones.
	for _, id := range sp.reactive {
		a.open[id] = ^uint64(0)
	}
	for _, set := range [2]struct {
		never bool
		v     uint64
	}{{false, 0}, {true, ^uint64(0)}} {
		for cl, never := range sp.noInput {
			if never == set.never {
				for _, id := range sp.members[sp.memOff[cl]:sp.memOff[cl+1]] {
					a.open[id] = set.v
				}
			}
		}
	}
	return a
}

// countSeeds counts each cluster's seeds awake afresh, at the first reset
// after a full sweep. The sweep's worklist is every decided
// cluster, so the seeds that fell asleep at its end need no cycle of
// counting as awake to be decided with their idle drives.
func (s *Sim) countSeeds(a *actState) {
	pl := &s.sparse.seeds
	copy(a.awake, pl.seeds)
	if s.napping == 0 {
		return
	}
	for _, id := range s.prog.starts {
		if s.bases[id].asleep {
			for _, cl := range pl.seedClusters(int(id)) {
				a.awake[cl]--
			}
		}
	}
}

// enlist puts a decided cluster on the next cycle's worklist; stamp is
// the cycle under way's.
func (a *actState) enlist(cl int32, stamp uint64) {
	if a.listed[cl] != stamp+1 {
		a.listed[cl] = stamp + 1
		a.next = append(a.next, cl)
	}
}

// resetOpen is the steady cycle's reset, over the worklist. Clusters that
// were open are cleared whole; closed clusters with an awake seed keep their interior and give
// up only their frontier, so the start handlers run against a cleared
// plane wherever they can look; closed clusters whose seeds all sleep are
// left alone, their cells and their resolutions kept. Every sleeping seed
// gets its Out ports driven idle in its place in the start phase; where
// its clusters were left alone those cells are resolved already. When no
// cell is to be kept, the reset is the full sweep's: one memclr.
func (s *Sim) resetOpen() {
	sp := s.sparse
	if s.act == nil {
		s.act = s.newActState()
	}
	a, stamp := s.act, s.stamp()
	a.work, a.next = a.next, a.work[:0]
	if a.allWork {
		a.allWork = false
		s.countSeeds(a)
		a.work = append(a.work[:0], sp.decided...)
		for _, cl := range sp.decided {
			a.listed[cl] = stamp
		}
	}
	if s.actCheck {
		s.plane.clearStatus()
		return
	}
	closed, conns := 0, int32(0)
	for _, cl := range a.work {
		if a.flags[cl]&actClosed != 0 {
			closed++
			conns += (sp.cellOff[cl+1] - sp.cellOff[cl]) / 3
		}
	}
	if left := a.closedConns - int(conns); left > 0 {
		s.resolved[SigData] += left
		s.resolved[SigEnable] += left
		s.resolved[SigAck] += left
	}
	whole := closed == a.nClosed && a.kept == 0
	if whole {
		s.plane.clearStatus()
		return
	}
	cells := s.plane.cells
	for _, list := range [2][]int32{a.work, sp.seeds.never} {
		for _, cl := range list {
			hi := sp.cellOff[cl+1]
			if a.flags[cl]&actClosed != 0 {
				hi = sp.frontEnd[cl]
			}
			for _, cell := range sp.cells[sp.cellOff[cl]:hi] {
				cells[cell] = uint32(Unknown)
			}
		}
	}
}

// wakeOpen runs between the start phase and the react phase of a steady
// cycle: it decides which clusters of the worklist close, restores their
// signatures, and wakes the reactive members of every other cluster —
// start-phase wakes of instances all of whose clusters closed are
// dropped, the rest keep their place in the queue. The next worklist
// starts with what stays open or has an awake seed.
func (s *Sim) wakeOpen() {
	sp, a := s.sparse, s.act
	cells, stamp := s.plane.cells, s.stamp()
	a.pending = a.pending[:0]
	for _, cl := range a.work {
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
				a.open[id] = max(a.open[id], stamp)
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
	for _, cl := range a.work {
		if a.flags[cl]&actClosed == 0 || a.awake[cl] > 0 {
			a.enlist(cl, stamp)
		}
	}
	if !s.actCheck && a.nClosed > 0 {
		s.queue = s.keepOpen(s.queue, stamp)
		s.acks = s.keepOpen(s.acks, stamp)
	}
	// Wake the members of the open clusters and those woken every cycle,
	// in ascending id.
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
