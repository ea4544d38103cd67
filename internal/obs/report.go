package obs

import (
	"fmt"
	"io"
	"time"

	core "liberty/internal/core"
)

// WriteScheduleReport writes a human-readable dump of the static schedule
// the levelized scheduler computed at Build time. The simulator must run
// the levelized scheduler (the default); for the sequential engine there
// is no static schedule to report.
func WriteScheduleReport(w io.Writer, s *core.Sim) error {
	info := s.Schedule()
	if info == nil {
		return fmt.Errorf("obs: schedule report requires the levelized scheduler (running %s)", s.Scheduler())
	}
	if _, err := fmt.Fprintf(w, "static schedule (%s):\n", info.Scheduler); err != nil {
		return err
	}
	fmt.Fprintf(w, "  modules:        %d in %d SCC(s), %d cyclic (largest %d modules)\n",
		info.Modules, info.SCCs, info.CyclicSCCs, info.LargestSCC)
	fmt.Fprintf(w, "  forward sweep:  %d conns over %d level(s), %d in cyclic residue\n",
		info.SweepConns, info.ForwardLevels, info.ResidueConns)
	fmt.Fprintf(w, "  ack sweep:      %d conns over %d level(s), %d in cyclic residue\n",
		info.AckSweepConns, info.AckLevels, info.AckResidueConns)
	fmt.Fprintf(w, "  payload lanes:  %d conns on the uint64 scalar fast lane, %d on the boxed spill lane\n",
		info.ScalarConns, info.SpillConns)
	if info.Scheduler == core.SchedulerSparse {
		fmt.Fprintf(w, "  activity:       %d/%d instances active (%d seed(s)), %d/%d conns re-resolved per cycle\n",
			info.ActiveInsts, info.ActiveInsts+info.GatedInsts, info.AlwaysActive,
			info.ActiveConns, info.ActiveConns+info.GatedConns)
		if info.GatedConns == 0 && info.PrunedConns == 0 {
			// Every reactive instance reaches a seed through some conn, so
			// no gated conn means no gated react either: nothing to replay.
			fmt.Fprintln(w, "                  the partition gates nothing: sessions run the levelized step (bulk reset, no per-conn replay bookkeeping)")
		}
		if info.PrunedConns > 0 || info.PrunedInsts > 0 {
			fmt.Fprintf(w, "  dataflow prune: %d instance(s) and %d conn(s) proven dead and removed\n",
				info.PrunedInsts, info.PrunedConns)
		}
	}
	if info.Scheduler == core.SchedulerWoven {
		fmt.Fprintf(w, "  weave:          %d conn(s) in constant replay, %d fused control kernel(s), %d interpreted fallback\n",
			info.WovenConns, info.CtrlKernels, info.FallbackConns)
		if info.PrunedConns > 0 || info.PrunedInsts > 0 {
			fmt.Fprintf(w, "  dataflow prune: %d instance(s) and %d conn(s) proven dead and removed\n",
				info.PrunedInsts, info.PrunedConns)
		}
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

// WriteHotReport writes the per-instance "hot module" report: the topN
// instances by estimated cumulative react time, with invocation counts
// and each instance's share of total react time. The simulator must have
// been built with metrics enabled.
func WriteHotReport(w io.Writer, s *core.Sim, topN int) error {
	m := s.Metrics()
	if m == nil {
		return fmt.Errorf("obs: hot report requires a simulator built with metrics (WithMetrics)")
	}
	snap := TakeSnapshot(s)
	var totalNs int64
	for _, inst := range snap.Hot {
		totalNs += inst.ReactTimeNs
	}
	if topN <= 0 || topN > len(snap.Hot) {
		topN = len(snap.Hot)
	}
	if _, err := fmt.Fprintf(w, "hot modules (top %d of %d, %s total react time, %d reacts):\n",
		topN, len(snap.Hot), time.Duration(totalNs), snap.Scheduler.Reacts); err != nil {
		return err
	}
	for _, inst := range snap.Hot[:topN] {
		share := 0.0
		if totalNs > 0 {
			share = 100 * float64(inst.ReactTimeNs) / float64(totalNs)
		}
		if _, err := fmt.Fprintf(w, "  %-40s %10d reacts %12s %6.1f%%\n",
			inst.Name, inst.Reacts, time.Duration(inst.ReactTimeNs), share); err != nil {
			return err
		}
	}
	return nil
}
