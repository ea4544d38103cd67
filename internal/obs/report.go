package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	core "liberty/internal/core"
)

// WriteScheduleReport writes a human-readable dump of the static schedule
// and cluster plan the engine computed at Build time. The simulator must
// run the engine (the default); the reference has neither to report.
func WriteScheduleReport(w io.Writer, s *core.Sim) error {
	info := s.Schedule()
	if info == nil {
		return fmt.Errorf("obs: schedule report requires the engine; the %s reference has no static schedule", s.Scheduler())
	}
	if _, err := fmt.Fprintln(w, "static schedule:"); err != nil {
		return err
	}
	fmt.Fprintf(w, "  modules:        %d; dependency graph: %d SCC(s), %d cyclic (largest %d node(s); a marked instance is a node per port)\n",
		info.Modules, info.SCCs, info.CyclicSCCs, info.LargestSCC)
	fmt.Fprintf(w, "  forward sweep:  %d conns over %d level(s), %d in cyclic residue\n",
		info.SweepConns, info.ForwardLevels, info.ResidueConns)
	fmt.Fprintf(w, "  ack sweep:      %d conns over %d level(s), %d in cyclic residue\n",
		info.AckSweepConns, info.AckLevels, info.AckResidueConns)
	fmt.Fprintf(w, "  clusters:       %d combinational cluster(s) (%s conns); %d decided each cycle from their cycle-start signals; %d seed instance(s)\n",
		info.Clusters, sizeHistogram(info.ClusterSizes), info.ClosableClusters, info.AlwaysActive)
	if n := info.NoInputClusters; n > 0 {
		fmt.Fprintf(w, "  never close:    %d cluster(s) with an input-less reactive member (LSE007)\n", n)
	}
	if info.TracerOpen {
		fmt.Fprintln(w, "  never close:    any cluster, in this session: a tracer is attached and sees every resolution")
	}
	if len(info.GlueInstances) > 0 {
		const show = 8
		names := info.GlueInstances
		more := ""
		if len(names) > show {
			names, more = names[:show], fmt.Sprintf(" and %d more", len(names)-show)
		}
		fmt.Fprintf(w, "  glued by:       %s%s — unmarked multi-port instances with a cycle-start handler in the largest cluster (candidates for MarkSequential)\n",
			strings.Join(names, ", "), more)
	}
	if len(info.BreakSites) == 0 {
		_, err := fmt.Fprintf(w, "  cycle breaks:   none — fully static schedule, zero fixed-point iterations\n")
		return err
	}
	fmt.Fprintf(w, "  cycle breaks (per cyclic SCC, lowest-id connection first):\n")
	for _, site := range info.BreakSites {
		if _, err := fmt.Fprintf(w, "    %s\n", site); err != nil {
			return err
		}
	}
	return nil
}

// sizeHistogram renders cluster sizes largest first, as "16×35, 64×1".
func sizeHistogram(sizes []int) string {
	sorted := append([]int(nil), sizes...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	var sb strings.Builder
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d×%d", j-i, sorted[i])
		i = j
	}
	return sb.String()
}

// WriteHotReport writes the per-instance "hot module" report: the topN
// instances by estimated cumulative react time, with invocation counts
// and each instance's share of total react time. The simulator must have
// been built with metrics enabled.
func WriteHotReport(w io.Writer, s *core.Sim, topN int) error {
	m := s.Metrics()
	if m == nil {
		return fmt.Errorf("obs: hot report requires a simulator built with metrics (WithMetrics)")
	}
	var (
		hot    []core.InstanceMetric
		reacts uint64
	)
	s.View(func() { hot, reacts = hotList(m), m.Reacts() })
	var totalNs int64
	for _, inst := range hot {
		totalNs += inst.ReactTime.Nanoseconds()
	}
	if topN <= 0 || topN > len(hot) {
		topN = len(hot)
	}
	if _, err := fmt.Fprintf(w, "hot modules (top %d of %d, %s total react time, %d reacts):\n",
		topN, len(hot), time.Duration(totalNs), reacts); err != nil {
		return err
	}
	for _, inst := range hot[:topN] {
		share := 0.0
		if totalNs > 0 {
			share = 100 * float64(inst.ReactTime) / float64(totalNs)
		}
		if _, err := fmt.Fprintf(w, "  %-40s %10d reacts %12s %6.1f%%\n",
			inst.Name, inst.Reacts, inst.ReactTime, share); err != nil {
			return err
		}
	}
	return nil
}
