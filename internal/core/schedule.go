package core

// schedule.go is the engine's static schedule. At compile time the module
// graph's SCC condensation (graph.go) partitions every connection, per
// signal direction, into either a levelized sweep — connections whose
// default can be applied in one statically-ordered pass, because every
// dependency lives in a strictly earlier level — or a residue of
// connections inside or downstream of a dependency cycle, which iterate
// at runtime on a worklist seeded by dirty signals. The per-cycle result
// is bit-identical to the reference's fixed point: default values depend
// only on the connection's own earlier-round signals, reactive handlers
// are monotonic, and cycle breaks fire at the same lowest-id unresolved
// connection the reference's scanner would pick.
//
// The compiled schedule lives on the Program and is shared read-only by
// every session: levels, residues and dependency lists are connection-id
// slices ([][]int32), and each Sim resolves ids against its own conns.
// The runtime worklist scratch (remaining counts, ready queue) is
// per-session state on the Sim.

// ScheduleInfo describes the static schedule and cluster plan the engine
// computed at compile time. Sim.Schedule returns nil under the reference.
type ScheduleInfo struct {
	// Scheduler is SchedulerSparse: the info exists only under the engine.
	Scheduler SchedulerKind
	// Modules is the number of instances in the netlist.
	Modules int
	// SCCs is the number of strongly connected components of the module
	// graph; CyclicSCCs of them contain a genuine dependency cycle, the
	// largest spanning LargestSCC modules.
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
	// UnconnectedPorts lists optional ports left without connections, as
	// "instance.port" names in instance then declaration order — the same
	// set WriteDot renders as dangling stub edges and the LSE001
	// diagnostic reports, so all three views agree.
	UnconnectedPorts []string
	// Clusters counts the combinational clusters: ClusterSizes has
	// each one's conn count, in order of the clusters' lowest conn, and
	// the largest spans LargestCluster conns. ClosableClusters of them are
	// decided cycle by cycle from what the start handlers drove;
	// AutonomousClusters and NoInputClusters never close, because a member
	// is MarkAutonomous or is reactive with no connected input.
	// GlueInstances names the unmarked multi-port instances with a
	// cycle-start handler that hold the largest cluster together — the
	// templates to read for MarkSequential next. TracerOpen reports that a
	// tracer is attached to this session, which keeps every cluster open
	// so traces are complete.
	Clusters           int
	ClusterSizes       []int
	LargestCluster     int
	ClosableClusters   int
	AutonomousClusters int
	NoInputClusters    int
	GlueInstances      []string
	TracerOpen         bool
	// GatedConns sit in a cluster no cycle-start handler can reach: closed
	// after every full sweep, never re-resolved; ActiveConns are the rest.
	// GatedInsts/ActiveInsts split the instances the same way (an instance
	// is active when it is a seed or reacts in a cluster that can open);
	// AlwaysActive of the active ones are seeds: a cycle-start handler,
	// MarkAutonomous, or a reactive handler with no connected input.
	ActiveInsts  int
	GatedInsts   int
	AlwaysActive int
	ActiveConns  int
	GatedConns   int
}

// progSchedule is the compiled static schedule, shared read-only across
// every session of a Program. All connection references are ids into the
// session's conns slice; the per-module dependency lists alias one
// backing slice per module.
type progSchedule struct {
	fwdLevels  [][]int32 // static sweep batches for data/enable, id-ordered within a level
	ackLevels  [][]int32 // static sweep batches for ack
	fwdResidue []int32   // id-ordered connections needing runtime iteration
	ackResidue []int32

	// Per-connection dependency and dependent lists, shared per module:
	// forward deps of c are the inputs of c's driving module, forward
	// dependents the outputs of c's receiving module; ack direction is
	// the mirror image.
	fwdDeps       [][]int32
	ackDeps       [][]int32
	fwdDependents [][]int32
	ackDependents [][]int32

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

// buildSchedule runs the compile-time static scheduling pass. Instance
// ids must already be assigned (assembly order).
func buildSchedule(instances []Instance, conns []*Conn) *progSchedule {
	g := buildModuleGraph(instances, conns)
	fwdLevel, ackLevel, fwdTaint, ackTaint := g.levelize(conns)

	nm := len(instances)
	moduleIns := make([][]int32, nm)
	moduleOuts := make([][]int32, nm)
	for _, c := range conns {
		moduleOuts[c.src.owner.id] = append(moduleOuts[c.src.owner.id], int32(c.id))
		moduleIns[c.dst.owner.id] = append(moduleIns[c.dst.owner.id], int32(c.id))
	}

	sc := &progSchedule{
		fwdDeps:       make([][]int32, len(conns)),
		ackDeps:       make([][]int32, len(conns)),
		fwdDependents: make([][]int32, len(conns)),
		ackDependents: make([][]int32, len(conns)),
	}
	maxFwd, maxAck := 0, 0
	for _, c := range conns {
		if l := fwdLevel[g.sccOf[c.src.owner.id]]; l > maxFwd {
			maxFwd = l
		}
		if l := ackLevel[g.sccOf[c.dst.owner.id]]; l > maxAck {
			maxAck = l
		}
	}
	sc.fwdLevels = make([][]int32, maxFwd+1)
	sc.ackLevels = make([][]int32, maxAck+1)
	// conns is id-ordered, so appending in order keeps every level and
	// residue list pre-sorted by connection id.
	for _, c := range conns {
		sc.fwdDeps[c.id] = moduleIns[c.src.owner.id]
		sc.ackDeps[c.id] = moduleOuts[c.dst.owner.id]
		sc.fwdDependents[c.id] = moduleOuts[c.dst.owner.id]
		sc.ackDependents[c.id] = moduleIns[c.src.owner.id]
		if fs := g.sccOf[c.src.owner.id]; fwdTaint[fs] {
			sc.fwdResidue = append(sc.fwdResidue, int32(c.id))
		} else {
			sc.fwdLevels[fwdLevel[fs]] = append(sc.fwdLevels[fwdLevel[fs]], int32(c.id))
		}
		if as := g.sccOf[c.dst.owner.id]; ackTaint[as] {
			sc.ackResidue = append(sc.ackResidue, int32(c.id))
		} else {
			sc.ackLevels[ackLevel[as]] = append(sc.ackLevels[ackLevel[as]], int32(c.id))
		}
	}
	sc.fwdLevels = compactLevels(sc.fwdLevels)
	sc.ackLevels = compactLevels(sc.ackLevels)

	info := &sc.info
	info.Scheduler = SchedulerSparse
	info.Modules = nm
	info.SCCs = g.nSCC
	for scc, cyc := range g.cyclic {
		if g.sccSize[scc] > info.LargestSCC {
			info.LargestSCC = g.sccSize[scc]
		}
		if cyc {
			info.CyclicSCCs++
		}
	}
	info.ForwardLevels = len(sc.fwdLevels)
	info.AckLevels = len(sc.ackLevels)
	for _, lvl := range sc.fwdLevels {
		info.SweepConns += len(lvl)
	}
	for _, lvl := range sc.ackLevels {
		info.AckSweepConns += len(lvl)
	}
	info.ResidueConns = len(sc.fwdResidue)
	info.AckResidueConns = len(sc.ackResidue)
	// The break site of a cyclic SCC is its lowest-id internal
	// connection: the first one the stall scan reaches.
	seen := make(map[int]bool)
	for _, c := range conns {
		scc := g.sccOf[c.src.owner.id]
		if scc == g.sccOf[c.dst.owner.id] && g.cyclic[scc] && !seen[scc] {
			seen[scc] = true
			info.BreakSites = append(info.BreakSites, c.String())
		}
	}
	for _, p := range unconnectedPorts(instances) {
		info.UnconnectedPorts = append(info.UnconnectedPorts, p.fullName())
	}
	return sc
}

// unconnectedPorts returns the optional ports left without connections,
// in instance then port-declaration order. Composite instances are
// skipped: their ports alias child ports, which are reported (once) on
// the owning child.
func unconnectedPorts(instances []Instance) []*Port {
	var out []*Port
	for _, inst := range instances {
		if _, isComposite := inst.(*Composite); isComposite {
			continue
		}
		for _, p := range inst.base().portList {
			if p.owner == inst.base() && len(p.conns) == 0 {
				out = append(out, p)
			}
		}
	}
	return out
}

func compactLevels(levels [][]int32) [][]int32 {
	out := levels[:0]
	for _, lvl := range levels {
		if len(lvl) > 0 {
			out = append(out, lvl)
		}
	}
	return out
}

// applyDefaults is the engine's default-control phase: per round (data,
// enable, ack), first the static sweep, then the residue worklist. Both
// skip cells that are resolved already — by handlers, or because a closed
// cluster holds them — so full and steady cycles walk the one schedule.
// The reference's re-scanning fixed point (reference.go) is what it must
// equal.
func (s *Sim) applyDefaults() {
	sc := s.schedule
	s.sweep(SigData, sc.fwdLevels)
	s.runResidue(SigData, sc.fwdResidue, sc.fwdDeps, sc.fwdDependents)
	s.sweep(SigEnable, sc.fwdLevels)
	s.runResidue(SigEnable, sc.fwdResidue, sc.fwdDeps, sc.fwdDependents)
	s.sweep(SigAck, sc.ackLevels)
	s.runResidue(SigAck, sc.ackResidue, sc.ackDeps, sc.ackDependents)
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

// runResidue resolves the cyclic residue of signal kind k with a
// worklist: each connection tracks how many of its dependencies are
// still unresolved; resolutions observed during reactive drains
// decrement the counts and feed newly eligible connections into the
// ready queue. When the queue stalls with connections outstanding, a
// genuine dependency cycle is broken at the lowest-id unresolved
// connection — the same site the reference's scanner picks. The worklist
// scratch (remaining counts, ready queue) is session state on the Sim;
// the id lists are the program's shared compiled schedule.
func (s *Sim) runResidue(k SigKind, ids []int32, deps, dependents [][]int32) {
	if len(ids) == 0 || s.resolved[k] == len(s.conns) {
		return
	}
	if s.schedRemaining == nil {
		s.schedRemaining = make([]int32, len(s.conns))
	}
	pending := 0
	ready := s.schedReady[:0]
	for _, id := range ids {
		c := s.conns[id]
		if c.status(k) != Unknown {
			s.schedRemaining[id] = -1
			continue
		}
		n := int32(0)
		for _, d := range deps[id] {
			if s.conns[d].status(k) == Unknown {
				n++
			}
		}
		s.schedRemaining[id] = n
		pending++
		if n == 0 {
			ready = append(ready, id)
		}
	}
	s.residueKind = k
	s.residueOn = true
	defer func() { s.residueOn = false }()
	head := 0
	for pending > 0 {
		var c *Conn
		if head < len(ready) {
			c = s.conns[ready[head]]
			head++
			if c.status(k) != Unknown {
				continue // resolved by a reactive handler meanwhile
			}
		} else {
			// Stall: break the cycle at the lowest-id unresolved conn.
			for _, id := range ids {
				if s.conns[id].status(k) == Unknown {
					c = s.conns[id]
					break
				}
			}
			if m := s.metrics; m != nil {
				m.breaks[k].Add(1)
			}
		}
		if m := s.metrics; m != nil {
			m.iters.Add(1)
		}
		s.applyDefault(c, k)
		s.drain()
		// Fold the resolutions the drain produced back into the
		// worklist.
		for _, rc := range s.resolvedBuf {
			if s.schedRemaining[rc.id] >= 0 {
				s.schedRemaining[rc.id] = -1
				pending--
			}
			for _, d := range dependents[rc.id] {
				if s.schedRemaining[d] > 0 {
					s.schedRemaining[d]--
					if s.schedRemaining[d] == 0 {
						ready = append(ready, d)
					}
				}
			}
		}
		s.resolvedBuf = s.resolvedBuf[:0]
	}
	s.schedReady = ready[:0]
}

// noteResolve feeds kind-k resolutions to the active residue worklist.
// Called from raise on every successful resolution; the recording slow
// path is split out so the idle-worklist flag check inlines.
func (s *Sim) noteResolve(c *Conn, k SigKind) {
	if s.residueOn && k == s.residueKind {
		s.noteResolveSlow(c)
	}
}

func (s *Sim) noteResolveSlow(c *Conn) {
	s.resolvedBuf = append(s.resolvedBuf, c)
}
