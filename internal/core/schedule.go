package core

// schedule.go is the engine's static schedule. At compile time the
// dependency graph's SCC condensation (graph.go) partitions every
// connection, per signal direction, into either a levelized sweep —
// connections whose default can be applied in one statically-ordered
// pass, because every dependency lives in a strictly earlier level — or a
// residue of connections inside or downstream of a dependency cycle. At run time the
// sweep goes first and the reference's own default round
// (reference.go defaultRound) resolves whatever it left: on an acyclic
// netlist nothing, so the round returns at once; on a cyclic one the
// residue, rescanned and broken at the lowest-id Unknown connection
// exactly as the reference does.
//
// The compiled schedule lives on the Program and is shared read-only by
// every session: levels are connection-id slices ([][]int32), and each
// Sim resolves ids against its own conns.

// ScheduleInfo describes the static schedule and cluster plan the engine
// computed at compile time. Sim.Schedule returns nil under the reference.
type ScheduleInfo struct {
	// Modules is the number of instances in the netlist.
	Modules int
	// SCCs is the number of strongly connected components of the
	// dependency graph; CyclicSCCs of them contain a genuine dependency
	// cycle, the largest spanning LargestSCC graph nodes. Both count
	// nodes: an instance is one, a MarkSequential one is one per
	// connected port.
	SCCs       int
	CyclicSCCs int
	LargestSCC int
	// ForwardLevels and AckLevels are the depths of the statically
	// ordered sweeps for forward signals (data, enable) and acks.
	ForwardLevels int
	AckLevels     int
	// SweepConns/ResidueConns split the forward-direction connections
	// into statically ordered and runtime-iterated; AckSweepConns and
	// AckResidueConns do the same for the backward ack direction.
	SweepConns      int
	ResidueConns    int
	AckSweepConns   int
	AckResidueConns int
	// BreakSites lists, per cyclic SCC, the connection where a default
	// dependency cycle is broken first (the lowest-id connection internal
	// to the SCC) — the place to add explicit control when a model's
	// cycle-break behavior matters.
	BreakSites []string
	// Clusters counts the combinational clusters: ClusterSizes has
	// each one's conn count, in order of the clusters' lowest conn, and
	// the largest spans LargestCluster conns. ClosableClusters of them are
	// decided cycle by cycle from what the start handlers drove;
	// NoInputClusters never close, because a member is reactive with no
	// connected input.
	// GlueInstances names the unmarked multi-port instances with a
	// cycle-start handler that hold the largest cluster together — the
	// templates to read for MarkSequential next. TracerOpen reports that a
	// tracer is attached to this session, which keeps every cluster open
	// so traces are complete.
	Clusters         int
	ClusterSizes     []int
	LargestCluster   int
	ClosableClusters int
	NoInputClusters  int
	GlueInstances    []string
	TracerOpen       bool
	// ActiveInsts have a cycle-start or a reactive handler; GatedInsts,
	// the rest, are never woken. AlwaysActive of the active ones are
	// seeds: a cycle-start handler, or a reactive handler with no
	// connected input.
	ActiveInsts  int
	GatedInsts   int
	AlwaysActive int
}

// progSchedule is the compiled static schedule, shared read-only across
// every session of a Program. All connection references are ids into the
// session's conns slice.
type progSchedule struct {
	fwdLevels [][]int32 // static sweep batches for data/enable, id-ordered within a level
	ackLevels [][]int32 // static sweep batches for ack

	info ScheduleInfo
}

// Schedule returns a copy of the engine's static schedule and cluster
// plan, or nil when the simulator runs the reference.
func (s *Sim) Schedule() *ScheduleInfo {
	if s.schedule == nil {
		return nil
	}
	info := s.schedule.info
	info.TracerOpen = s.tracer != nil
	return &info
}

// Scheduler returns the scheduler kind the simulator runs.
func (s *Sim) Scheduler() SchedulerKind { return s.sched }

// buildSchedule runs the compile-time static scheduling pass over the
// dependency graph. Instance ids must already be assigned (assembly order).
func buildSchedule(g *depGraph, instances []Instance, conns []*Conn) *progSchedule {
	fwd, ack := g.levelize()
	sc := &progSchedule{}
	info := &sc.info
	n := len(conns)
	sc.fwdLevels, info.ResidueConns = cutLevels(n, func(id int) int32 { return fwd[g.sccOf[g.src[id]]] })
	sc.ackLevels, info.AckResidueConns = cutLevels(n, func(id int) int32 { return ack[g.sccOf[g.dst[id]]] })

	info.Modules = len(instances)
	info.SCCs, info.LargestSCC = len(g.cyclic), g.largest
	info.ForwardLevels, info.AckLevels = len(sc.fwdLevels), len(sc.ackLevels)
	info.SweepConns, info.AckSweepConns = n-info.ResidueConns, n-info.AckResidueConns
	// The break site of a cyclic SCC is its lowest-id internal
	// connection: the first one the stall scan reaches.
	seen := make([]bool, len(g.cyclic))
	for id, c := range conns {
		if scc := g.sccOf[g.src[id]]; scc == g.sccOf[g.dst[id]] && !seen[scc] {
			seen[scc] = true
			info.CyclicSCCs++
			info.BreakSites = append(info.BreakSites, c.String())
		}
	}
	return sc
}

// cutLevels groups the conn ids by level (-1: the residue) into levels
// cut from one slab, each ascending by id, and counts the residue.
func cutLevels(n int, level func(id int) int32) (levels [][]int32, residue int) {
	top := int32(-1)
	for id := 0; id < n; id++ {
		top = max(top, level(id))
	}
	end := make([]int32, top+1) // counts, then fill cursors that stop at each level's end
	for id := 0; id < n; id++ {
		if l := level(id); l >= 0 {
			end[l]++
		} else {
			residue++
		}
	}
	at := int32(0)
	for l, k := range end {
		end[l] = at
		at += k
	}
	slab := make([]int32, at)
	for id := 0; id < n; id++ {
		if l := level(id); l >= 0 {
			slab[end[l]] = int32(id)
			end[l]++
		}
	}
	// No level is empty: a level-L conn's SCC has a level-(L-1) neighbour.
	levels = make([][]int32, len(end))
	start := int32(0)
	for l, e := range end {
		levels[l], start = slab[start:e:e], e
	}
	return levels, residue
}

// applyDefaults is the engine's default-control phase: per round (data,
// enable, ack), first the static sweep, then the reference's own default
// round for the residue. Both skip cells that are resolved already — by
// handlers, or because a closed cluster holds them — and the round returns
// at once when the resolved[k] count says nothing is left, so full and
// steady cycles walk the one schedule.
func (s *Sim) applyDefaults() {
	sc := s.schedule
	s.sweep(SigData, sc.fwdLevels)
	s.defaultRound(SigData)
	s.sweep(SigEnable, sc.fwdLevels)
	s.defaultRound(SigEnable)
	s.sweep(SigAck, sc.ackLevels)
	s.defaultRound(SigAck)
}

// sweep applies defaults level by level. Connections within one level
// are mutually independent by construction (a level-L connection's
// dependencies all live in levels < L), so each level is defaulted as a
// single batch followed by one reactive drain — no fixed-point iteration
// and no eligibility checks.
func (s *Sim) sweep(k SigKind, levels [][]int32) {
	n := len(s.conns)
	for _, lvl := range levels {
		if s.resolved[k] == n {
			// Every kind-k signal already resolved (reactions on a fully
			// active netlist usually resolve everything): nothing left to
			// default, skip the remaining level scans.
			return
		}
		applied := false
		for _, id := range lvl {
			c := s.conns[id]
			if c.status(k) == Unknown {
				s.applyDefault(c, k)
				applied = true
			}
		}
		if applied {
			s.drain()
		}
	}
}
