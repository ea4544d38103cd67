package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

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

var sigKinds = [...]core.SigKind{core.SigData, core.SigEnable, core.SigAck}

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

// WriteJSON writes the simulator's snapshot to w as indented JSON.
func WriteJSON(w io.Writer, s *core.Sim) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(TakeSnapshot(s))
}

// WriteCSV writes the simulator's snapshot to w as CSV rows of the form
// kind,name,field,value — a flat layout spreadsheet tooling ingests
// without a schema.
func WriteCSV(w io.Writer, s *core.Sim) error {
	snap := TakeSnapshot(s)
	cw := csv.NewWriter(w)
	row := func(kind, name, field string, value any) {
		var v string
		switch x := value.(type) {
		case int64:
			v = strconv.FormatInt(x, 10)
		case uint64:
			v = strconv.FormatUint(x, 10)
		case float64:
			v = strconv.FormatFloat(x, 'g', -1, 64)
		default:
			v = ""
		}
		cw.Write([]string{kind, name, field, v})
	}
	row("sim", "", "cycles", snap.Cycles)
	row("sim", "", "seed", snap.Seed)
	row("sim", "", "instances", int64(snap.Instances))
	row("sim", "", "conns", int64(snap.Conns))
	row("sim", "", "spill_hits", snap.SpillHits)
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		row("counter", n, "value", snap.Counters[n])
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		row("histogram", n, "count", h.Count)
		row("histogram", n, "sum", h.Sum)
		row("histogram", n, "mean", h.Mean)
		row("histogram", n, "min", h.Min)
		row("histogram", n, "max", h.Max)
		row("histogram", n, "p50", h.P50)
		row("histogram", n, "p95", h.P95)
		row("histogram", n, "p99", h.P99)
	}
	if sd := snap.Schedule; sd != nil {
		row("schedule", "", "modules", int64(sd.Modules))
		row("schedule", "", "sccs", int64(sd.SCCs))
		row("schedule", "", "cyclic_sccs", int64(sd.CyclicSCCs))
		row("schedule", "", "largest_scc", int64(sd.LargestSCC))
		row("schedule", "", "forward_levels", int64(sd.ForwardLevels))
		row("schedule", "", "ack_levels", int64(sd.AckLevels))
		row("schedule", "", "sweep_conns", int64(sd.SweepConns))
		row("schedule", "", "residue_conns", int64(sd.ResidueConns))
		row("schedule", "", "ack_sweep_conns", int64(sd.AckSweepConns))
		row("schedule", "", "ack_residue_conns", int64(sd.AckResidueConns))
		row("schedule", "", "active_insts", int64(sd.ActiveInsts))
		row("schedule", "", "gated_insts", int64(sd.GatedInsts))
		row("schedule", "", "always_active", int64(sd.AlwaysActive))
		row("schedule", "", "clusters", int64(sd.Clusters))
		row("schedule", "", "closable_clusters", int64(sd.ClosableClusters))
		for i, site := range sd.BreakSites {
			cw.Write([]string{"schedule", strconv.Itoa(i), "break_site", site})
		}
	}
	if sc := snap.Scheduler; sc != nil {
		row("scheduler", "", "cycles", sc.Cycles)
		row("scheduler", "", "wakes", sc.Wakes)
		row("scheduler", "", "reacts", sc.Reacts)
		row("scheduler", "", "fixed_point_iters", sc.FixedPointIters)
		row("scheduler", "", "active_insts", sc.ActiveInsts)
		row("scheduler", "", "skipped_wakes", sc.SkippedWakes)
		row("scheduler", "", "closed_clusters", sc.ClosedClusters)
		row("scheduler", "", "closed_conn_share", sc.ClosedConnShare)
		for _, k := range sigKinds {
			row("scheduler", k.String(), "default_fallbacks", sc.DefaultFallbacks[k.String()])
			row("scheduler", k.String(), "cycle_breaks", sc.CycleBreaks[k.String()])
		}
	}
	for _, inst := range snap.Hot {
		row("instance", inst.Name, "reacts", inst.Reacts)
		row("instance", inst.Name, "react_time_ns", inst.ReactTimeNs)
	}
	cw.Flush()
	return cw.Error()
}
