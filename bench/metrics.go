package main

// metrics.go names every workload and metric of the benchmark. The tables
// are the source of BENCHMARK.json (`lsbench manifest` prints it, a test
// keeps the two equal) and of the bounds `lsbench compare` applies.

// metricDef is one named measurement.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a per-layer count that repeats exactly for a given seed
	// on a deterministic workload; compare demands equality, not a bound.
	Exact bool
}

// endToEnd is what a user of the simulator or the daemon sees, measured
// with tracing off. Every workload emits every one of them, never zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_job", Unit: "MB", Better: "lower", Bound: 0.05},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
func exact(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Exact: true}
}

// perLayer is the ledger under the end-to-end numbers, from the traced
// pass. `_ms` metrics are mean self time per traced job of the spans the
// benchmark records around that layer's public functions.
var perLayer = []metricDef{
	// Job-level numbers that only some workloads define, so they cannot
	// sit in endToEnd (which every workload must emit, non-zero).
	higher("sim_cycles_per_s", "cycles/s"),
	lower("job_ms_p95", "ms"),
	lower("construct_ms_geomean", "ms"),
	lower("allocs_per_cycle", "allocs"),

	lower("lss.parse_ms", "ms"),
	lower("lss.elab_ms", "ms"),
	exact("lss.elab_calls", "count"),
	lower("core.compile_ms", "ms"),
	lower("systems.assemble_ms", "ms"),
	lower("core.stamp_ms", "ms"),
	lower("core.stamp_allocs", "allocs"),
	lower("core.step_ms", "ms"),
	lower("core.step_us_per_cycle", "us"),
	lower("core.step_ref_us_per_cycle", "us"),
	higher("core.step_speedup_vs_ref", "ratio"),

	exact("core.reacts_per_cycle", "count"),
	exact("core.wakes_per_cycle", "count"),
	exact("core.fixed_point_iters_per_cycle", "count"),
	exact("core.default_fallbacks_per_cycle", "count"),
	exact("core.cycle_breaks_per_cycle", "count"),
	exact("core.spill_hits_per_cycle", "count"),

	exact("core.sched.residue_conn_share", "ratio"),
	exact("core.sched.ack_residue_conn_share", "ratio"),
	exact("core.sched.largest_scc_share", "ratio"),
	exact("core.sched.forward_levels", "count"),
	exact("core.sched.woven_conn_share", "ratio"),
	exact("core.sched.gated_conn_share", "ratio"),
	exact("core.sched.scalar_conn_share", "ratio"),

	lower("pcl.react_ms_per_kcycle", "ms"),
	lower("ccl.react_ms_per_kcycle", "ms"),
	lower("mpl.react_ms_per_kcycle", "ms"),
	lower("upl.react_ms_per_kcycle", "ms"),
	lower("systems.react_ms_per_kcycle", "ms"),
	lower("core.nonreact_ms_per_kcycle", "ms"),

	lower("ccl.sweep_compile_ms", "ms"),
	lower("ccl.sweep_stamp_ms", "ms"),
	lower("ccl.sweep_run_ms", "ms"),
	exact("ccl.sweep_points", "count"),

	lower("obs.snapshot_ms", "ms"),
	lower("obs.snapshot_bytes", "bytes"),

	lower("simd.submit_hit_ms_p50", "ms"),
	lower("simd.submit_miss_ms_p50", "ms"),
	lower("simd.session_ms_p50", "ms"),
	lower("simd.run_ms_p50", "ms"),
	lower("simd.observe_ms_p50", "ms"),
	lower("simd.snapshot_ms_p50", "ms"),
	lower("simd.restore_ms_p50", "ms"),
	lower("simd.close_ms_p50", "ms"),
	lower("simd.run_overhead_ms_p50", "ms"),
	higher("simd.cache_hit_ratio", "ratio"),
	higher("simd.requests", "count"),
	lower("simd.errors", "count"),
	lower("simd.observe_bytes", "bytes"),
	lower("simd.snapshot_bytes", "bytes"),
	lower("lsd.cpu_s", "s"),
	lower("lsd.cpu_per_roundtrip_ms", "ms"),

	lower("runtime.gc_cycles", "count"),
	lower("runtime.gc_pause_ms", "ms"),
	lower("runtime.heap_inuse_mb_end", "MB"),
	lower("runtime.peak_rss_mb", "MB"),

	// The modelled design's own statistics: a change to the simulator
	// (not to a model) must leave them identical.
	exact("sim.cycles", "cycles"),
	exact("sim.transfers", "count"),
	exact("sim.mean_latency_cycles", "cycles"),
	higher("sim.digest_stable", "flag"),
	higher("sim.golden_match", "flag"),

	lower("trace.overhead_ratio", "ratio"),
	lower("trace.unattributed_ratio", "ratio"),
	higher("trace.spans", "count"),
}

// workloadDef is one row of the workload table; new builds its runner.
type workloadDef struct {
	Name string
	Why  string
	// Deterministic workloads repeat every Exact metric for a given seed.
	Deterministic bool
	new           func(*env) workload
}

var workloads = []workloadDef{
	{"mesh_busy", "Fig 1 path on the 4x4 NoC spec: parse to stats JSON; 79% of conns in the cyclic residue, so core step's worklist path is >=98% of the job", true, newMeshBusy},
	{"cmp_coherence", "Fig 2a CMP + Fig 2c torus grid via the Go API: one 320-module SCC and heavy mpl/upl handlers, separates engine overhead from handler time", false, newCMPCoherence},
	{"sensornet_acyclic", "Fig 2b sensor network: 0% residue, the static level sweep only; engine-choice and residue work must leave it flat", true, newSensornet},
	{"orion_sweep", "Claim C5: 8x8 mesh compiled once and stamped per operating point over the ten orion rates; 4.4x the mesh_busy netlist, stamp cost shows", true, newOrionSweep},
	{"construct_corpus", "Fig 1 refinement loop: 11 models from spec to a ready Sim plus one Step; core step is ~0, parse+elab+compile+stamp are all of it", true, newConstructCorpus},
	{"lsd_roundtrip", "Service path against a real lsd process, 2 clients: submit (hit and miss+evict), session, run 200, observe, snapshot/restore, close", true, newLSDRoundtrip},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
