package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// goldenSeed is the one seed whose reference digests are checked in.
const goldenSeed = 1

// analysis turns one run's job results into correctness verdicts and the
// per-layer ledger.
type analysis struct {
	e       *env
	def     *workloadDef
	nvar    int
	results []jobResult
	ref     refResult
	wall    float64 // seconds the timed section took

	failed int
	stable bool // every job's digests equal its reference
	golden float64
}

// check digests every job, compares it with the reference for its input
// and counts failures. A digest mismatch fails the job only on a
// deterministic workload; elsewhere it only clears sim.digest_stable.
func (a *analysis) check() error {
	a.stable = true
	// The reference's extra jobs are checked like timed ones, but are not
	// part of the measured section.
	a.checkJobs(a.results)
	a.checkJobs(a.ref.extra)
	return a.checkGolden()
}

func (a *analysis) checkJobs(rs []jobResult) {
	for i := range rs {
		r := &rs[i]
		if r.err == nil && r.digests == nil {
			r.digests, r.err = digests(r.docs)
		}
		// Timed construct_corpus jobs take no statistics and so carry no
		// digests; the reference's extra job stands in for them.
		if r.err == nil && len(r.digests) > 0 && !slices.Equal(r.digests, a.ref.digests[r.index%a.nvar]) {
			a.stable = false
			if a.def.Deterministic {
				r.err = fmt.Errorf("digests %x differ from the reference %x", r.digests, a.ref.digests[r.index%a.nvar])
			}
		}
		if r.err != nil {
			if a.failed++; a.failed <= 5 { // the first few say enough
				fmt.Fprintf(os.Stderr, "lsbench: %s job %d failed: %v\n", a.def.Name, r.index, r.err)
			}
		}
	}
}

// checkGolden compares the reference digests of the default seed with the
// checked-in ones. A mismatch is reported, not failed: see README.md.
func (a *analysis) checkGolden() error {
	a.golden = -1 // not checked: another seed, or a workload that does not repeat
	if a.e.seed == goldenSeed && a.def.Deterministic {
		want, err := loadGolden(a.e.dir)
		if err != nil {
			return err
		}
		a.golden = 0
		if slices.Equal(want[a.def.Name], goldenOf(a.ref)) {
			a.golden = 1
		} else {
			fmt.Fprintf(os.Stderr, "lsbench: %s: reference digests differ from golden.json: the modelled design's statistics changed\n", a.def.Name)
		}
	}
	return nil
}

// goldenOf renders reference digests the way golden.json stores them.
func goldenOf(ref refResult) []string {
	var out []string
	for _, ds := range ref.digests {
		for _, d := range ds {
			out = append(out, fmt.Sprintf("%016x", d))
		}
	}
	return out
}

func goldenPath(dir string) string { return filepath.Join(dir, "golden.json") }

func loadGolden(dir string) (map[string][]string, error) {
	raw, err := os.ReadFile(goldenPath(dir))
	if err != nil {
		return nil, err
	}
	var g map[string][]string
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(dir), err)
	}
	return g, nil
}

// latencies returns the latency of every successful job of one kind.
func (a *analysis) latencies(traced bool) []float64 {
	var ms []float64
	for _, r := range a.results {
		if r.err == nil && r.traced == traced {
			ms = append(ms, r.ms)
		}
	}
	return ms
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layers fills m with every per-layer metric of the traced pass.
func (a *analysis) layers(m map[string]float64, tr *tracer) {
	var traced, untraced, exactSet []jobResult
	for _, r := range a.results {
		switch {
		case r.err != nil:
		case r.traced:
			traced = append(traced, r)
			// The first traced round sees each distinct input exactly once
			// whatever the job count, so counts taken over it repeat.
			if keepsDocs(r.index, a.nvar) {
				exactSet = append(exactSet, r)
			}
		default:
			untraced = append(untraced, r)
		}
	}
	// Two clients finish jobs in any order; sums of floats must not.
	slices.SortFunc(exactSet, func(x, y jobResult) int { return x.index - y.index })
	nT := float64(len(traced))
	sums := summarize(tr.spans)
	sum := func(name string) layerSum {
		if s := sums[name]; s != nil {
			return *s
		}
		return layerSum{}
	}
	for _, name := range []string{"lss.parse", "lss.elab", "core.compile", "systems.assemble", "core.stamp",
		"core.step", "obs.snapshot", "ccl.sweep_compile", "ccl.sweep_stamp", "ccl.sweep_run"} {
		m[name+"_ms"] = ratio(float64(sum(name).SelfNs)/1e6, nT)
	}
	m["lss.elab_calls"] = ratio(float64(sum("lss.elab").Calls), nT)
	m["core.stamp_allocs"] = ratio(float64(sum("core.stamp").N), nT)
	m["ccl.sweep_points"] = ratio(float64(sum("ccl.sweep_run").Calls), nT)
	m["obs.snapshot_bytes"] = ratio(float64(sum("obs.snapshot").N), float64(sum("obs.snapshot").Calls))

	job := sum("job")
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.unattributed_ratio"] = ratio(float64(job.SelfNs), float64(job.DurNs))
	m["trace.overhead_ratio"] = ratio(median(a.latencies(true)), median(a.latencies(false))) - 1

	// Job-level numbers from the untraced rounds of this pass.
	var cycles, stepHost, runMallocs float64
	for _, r := range untraced {
		cycles += float64(r.cycles)
		stepHost += float64(r.stepNs)
		runMallocs += float64(r.runMallocs)
	}
	m["sim_cycles_per_s"] = ratio(cycles, stepHost/1e9)
	// Cost per cycle from the untraced rounds, so that the comparison with
	// the (untraced) sequential reference is like for like.
	m["core.step_us_per_cycle"] = ratio(stepHost/1e3, cycles)
	m["core.step_ref_us_per_cycle"] = ratio(float64(a.ref.stepNs)/1e3, float64(a.ref.cycles))
	m["core.step_speedup_vs_ref"] = ratio(m["core.step_ref_us_per_cycle"], m["core.step_us_per_cycle"])
	m["allocs_per_cycle"] = ratio(runMallocs, cycles)
	ms := a.latencies(false)
	if tailPercentile(len(ms)) >= 95 {
		m["job_ms_p95"] = percentile(ms, 95)
	}
	if len(untraced) > 0 {
		var medians []float64
		for k := range untraced[0].modelMs {
			var xs []float64
			for _, r := range untraced {
				xs = append(xs, r.modelMs[k])
			}
			medians = append(medians, median(xs))
		}
		m["construct_ms_geomean"] = geomean(medians)
	}

	a.exactCounts(m, exactSet)
	a.service(m)
	m["sim.digest_stable"] = 0
	if a.stable {
		m["sim.digest_stable"] = 1
	}
	m["sim.golden_match"] = a.golden
}

// exactCounts fills the metrics read from the statistics documents of the
// first traced round: the design's own statistics, the engine's work
// counts per cycle, the schedule's shape, and handler time by library.
func (a *analysis) exactCounts(m map[string]float64, set []jobResult) {
	var cycles, transfers, latSum, latN, stepNs float64
	sched, work := map[string]float64{}, map[string]float64{}
	react := map[string]float64{} // library -> ns
	for _, r := range set {
		stepNs += float64(r.stepNs)
		for _, raw := range r.docs {
			d, err := parseStats(raw)
			if err != nil {
				continue // check() already failed this job
			}
			cycles += float64(d.Cycles)
			transfers += float64(d.transfers())
			s, n := d.latency()
			latSum += s
			latN += float64(n)
			work["spill_hits"] += float64(d.SpillHits)
			for _, k := range []string{"reacts", "wakes", "fixed_point_iters"} {
				work[k] += num(d.Scheduler, k)
			}
			work["default_fallbacks"] += sumObj(d.Scheduler, "default_fallbacks")
			work["cycle_breaks"] += sumObj(d.Scheduler, "cycle_breaks")
			sched["conns"] += float64(d.Conns)
			for _, k := range []string{"modules", "largest_scc", "sweep_conns", "residue_conns", "ack_sweep_conns",
				"ack_residue_conns", "woven_conns", "gated_conns", "scalar_conns"} {
				sched[k] += num(d.Schedule, k)
			}
			sched["forward_levels"] = max(sched["forward_levels"], num(d.Schedule, "forward_levels"))
			for _, h := range d.Hot {
				react[a.ref.pkgOf[h.Name]] += float64(h.ReactTimeNs)
			}
		}
	}
	jobs := float64(len(set))
	m["sim.cycles"] = ratio(cycles, jobs)
	m["sim.transfers"] = ratio(transfers, jobs)
	m["sim.mean_latency_cycles"] = ratio(latSum, latN)
	for _, k := range []string{"reacts", "wakes", "fixed_point_iters", "default_fallbacks", "cycle_breaks", "spill_hits"} {
		m["core."+k+"_per_cycle"] = ratio(work[k], cycles)
	}
	s := sched
	m["core.sched.residue_conn_share"] = ratio(s["residue_conns"], s["sweep_conns"]+s["residue_conns"])
	m["core.sched.ack_residue_conn_share"] = ratio(s["ack_residue_conns"], s["ack_sweep_conns"]+s["ack_residue_conns"])
	m["core.sched.largest_scc_share"] = ratio(s["largest_scc"], s["modules"])
	m["core.sched.forward_levels"] = s["forward_levels"]
	for _, k := range []string{"woven", "gated", "scalar"} {
		m["core.sched."+k+"_conn_share"] = ratio(s[k+"_conns"], s["conns"])
	}
	var reactNs float64
	for _, lib := range []string{"pcl", "ccl", "mpl", "upl", "systems"} {
		m[lib+".react_ms_per_kcycle"] = ratio(react[lib]/1e6, cycles/1e3)
		reactNs += react[lib]
	}
	m["core.nonreact_ms_per_kcycle"] = 0
	if stepNs > 0 { // lsd jobs step in another process; there is no host time to split
		m["core.nonreact_ms_per_kcycle"] = ratio((stepNs-reactNs)/1e6, cycles/1e3)
	}
}

// service fills the client-observed lsd metrics. Per-endpoint medians are
// over the mesh trips; the checkpoint trips on the much smaller pipeline
// spec carry their own op names (suffix _ckpt) so they cannot drag the
// medians, and contribute snapshot and restore.
func (a *analysis) service(m map[string]float64) {
	ms, size := map[string][]float64{}, map[string][]float64{}
	var requests, errs, hits, misses, cycles float64
	for _, r := range a.results {
		cycles += float64(r.cycles)
		for _, op := range r.ops {
			requests++
			if op.err {
				errs++
				continue
			}
			ms[op.op] = append(ms[op.op], op.ms)
			size[op.op] = append(size[op.op], float64(op.bytes))
			switch strings.TrimSuffix(op.op, "_ckpt") {
			case "submit_hit":
				hits++
			case "submit_miss":
				misses++
			}
		}
	}
	if requests == 0 {
		return
	}
	for _, op := range []string{"submit_hit", "submit_miss", "session", "run", "observe", "snapshot", "restore", "close"} {
		m["simd."+op+"_ms_p50"] = median(ms[op])
	}
	m["simd.run_overhead_ms_p50"] = median(ms["run"]) - lsdRunCycles*a.ref.inprocUsPerCycle/1e3
	m["simd.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["simd.requests"] = requests
	m["simd.errors"] = errs
	m["simd.observe_bytes"] = median(size["observe"])
	m["simd.snapshot_bytes"] = median(size["snapshot"])
	// The daemon steps in its own process: rate the cycles it ran against
	// the wall time of the whole section.
	m["sim_cycles_per_s"] = ratio(cycles, a.wall)
}
