package obs

import (
	"sort"

	core "liberty/internal/core"
)

// HistogramStats is the exported summary of one histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func histStats(h *core.Histogram) HistogramStats {
	return HistogramStats{
		Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
		Min: h.Min(), Max: h.Max(),
		P50: h.P50(), P95: h.P95(), P99: h.P99(),
	}
}

// InstanceStats is the exported react profile of one instance.
type InstanceStats struct {
	Name        string `json:"name"`
	Reacts      uint64 `json:"reacts"`
	ReactTimeNs int64  `json:"react_time_ns"`
}

// SchedulerStats is the exported view of core.Metrics: where the
// engine's time went, cycle by cycle.
type SchedulerStats struct {
	Cycles           uint64            `json:"cycles"`
	Wakes            uint64            `json:"wakes"`
	Reacts           uint64            `json:"reacts"`
	FixedPointIters  uint64            `json:"fixed_point_iters"`
	ActiveInsts      uint64            `json:"active_insts"`
	SkippedWakes     uint64            `json:"skipped_wakes"`
	ClosedClusters   uint64            `json:"closed_clusters"`
	ClosedConnShare  float64           `json:"closed_conn_share"`
	DefaultFallbacks map[string]uint64 `json:"default_fallbacks"`
	CycleBreaks      map[string]uint64 `json:"cycle_breaks"`
}

// ScheduleStats is the exported view of the static schedule the engine
// computed at Build time: how the netlist partitioned into
// statically ordered sweep levels versus the cyclic residue, and where
// default-dependency cycles break.
type ScheduleStats struct {
	Modules          int      `json:"modules"`
	SCCs             int      `json:"sccs"`
	CyclicSCCs       int      `json:"cyclic_sccs"`
	LargestSCC       int      `json:"largest_scc"`
	ForwardLevels    int      `json:"forward_levels"`
	AckLevels        int      `json:"ack_levels"`
	SweepConns       int      `json:"sweep_conns"`
	ResidueConns     int      `json:"residue_conns"`
	AckSweepConns    int      `json:"ack_sweep_conns"`
	AckResidueConns  int      `json:"ack_residue_conns"`
	ActiveInsts      int      `json:"active_insts,omitempty"`
	GatedInsts       int      `json:"gated_insts,omitempty"`
	AlwaysActive     int      `json:"always_active,omitempty"`
	Clusters         int      `json:"clusters,omitempty"`
	ClosableClusters int      `json:"closable_clusters,omitempty"`
	BreakSites       []string `json:"break_sites,omitempty"`
}

func scheduleStats(info *core.ScheduleInfo) *ScheduleStats {
	return &ScheduleStats{
		Modules:          info.Modules,
		SCCs:             info.SCCs,
		CyclicSCCs:       info.CyclicSCCs,
		LargestSCC:       info.LargestSCC,
		ForwardLevels:    info.ForwardLevels,
		AckLevels:        info.AckLevels,
		SweepConns:       info.SweepConns,
		ResidueConns:     info.ResidueConns,
		AckSweepConns:    info.AckSweepConns,
		AckResidueConns:  info.AckResidueConns,
		ActiveInsts:      info.ActiveInsts,
		GatedInsts:       info.GatedInsts,
		AlwaysActive:     info.AlwaysActive,
		Clusters:         info.Clusters,
		ClosableClusters: info.ClosableClusters,
		BreakSites:       info.BreakSites,
	}
}

// Snapshot is a point-in-time, machine-readable view of a simulator:
// identity, the full StatSet, the static schedule (when the simulator
// runs the engine, not the reference), and — when the simulator was built with
// metrics — scheduler counters and the per-instance react profile sorted
// hottest first.
type Snapshot struct {
	Cycles     uint64                    `json:"cycles"`
	Seed       int64                     `json:"seed"`
	Instances  int                       `json:"instances"`
	Conns      int                       `json:"conns"`
	SpillHits  uint64                    `json:"spill_hits"`
	Counters   map[string]int64          `json:"counters"`
	Histograms map[string]HistogramStats `json:"histograms"`
	Schedule   *ScheduleStats            `json:"schedule,omitempty"`
	Scheduler  *SchedulerStats           `json:"scheduler,omitempty"`
	Hot        []InstanceStats           `json:"hot,omitempty"`
}

// TakeSnapshot captures the simulator's current statistics and metrics.
// It copies them in one Sim.View, so the snapshot is consistent at a
// cycle boundary even while another goroutine steps the simulator.
func TakeSnapshot(s *core.Sim) (snap Snapshot) {
	s.View(func() { snap = takeSnapshot(s) })
	return snap
}

func takeSnapshot(s *core.Sim) Snapshot {
	snap := Snapshot{
		Cycles:     s.Now(),
		Seed:       s.Seed(),
		Instances:  len(s.Instances()),
		Conns:      len(s.Conns()),
		SpillHits:  s.SpillHits(),
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	s.Stats().Each(func(name string, c *core.Counter, h *core.Histogram) {
		if c != nil {
			snap.Counters[name] = c.Value()
		} else {
			snap.Histograms[name] = histStats(h)
		}
	})
	if info := s.Schedule(); info != nil {
		snap.Schedule = scheduleStats(info)
	}
	m := s.Metrics()
	if m == nil {
		return snap
	}
	sched := &SchedulerStats{
		Cycles:           m.Cycles(),
		Wakes:            m.Wakes(),
		Reacts:           m.Reacts(),
		FixedPointIters:  m.FixedPointIters(),
		ActiveInsts:      m.ActiveInstances(),
		SkippedWakes:     m.SkippedWakes(),
		ClosedClusters:   m.ClosedClusterCycles(),
		DefaultFallbacks: map[string]uint64{},
		CycleBreaks:      map[string]uint64{},
	}
	for _, k := range sigKinds {
		sched.DefaultFallbacks[k.String()] = m.DefaultFallbacks(k)
		sched.CycleBreaks[k.String()] = m.CycleBreaks(k)
	}
	if n := m.Cycles() * uint64(len(s.Conns())); n > 0 {
		sched.ClosedConnShare = float64(m.ClosedConnCycles()) / float64(n)
	}
	snap.Scheduler = sched
	for _, im := range m.Instances() {
		snap.Hot = append(snap.Hot, InstanceStats{
			Name: im.Name, Reacts: im.Reacts, ReactTimeNs: im.ReactTime.Nanoseconds(),
		})
	}
	sort.SliceStable(snap.Hot, func(i, j int) bool {
		if snap.Hot[i].ReactTimeNs != snap.Hot[j].ReactTimeNs {
			return snap.Hot[i].ReactTimeNs > snap.Hot[j].ReactTimeNs
		}
		return snap.Hot[i].Reacts > snap.Hot[j].Reacts
	})
	return snap
}
