package core

// BuildOption configures the simulator under construction. Options are
// accepted by NewBuilder and by Build; the last option to touch a setting
// wins, except WithTracer, which composes.
type BuildOption func(*Builder)

// SchedulerKind selects the engine that resolves each cycle's signals.
type SchedulerKind uint8

const (
	// SchedulerAuto lets Build choose: currently the activity-gated
	// sparse scheduler, bit-identical to the sequential fixed point. On a
	// netlist whose activity partition gates nothing — every paper model
	// measured so far — its sessions run the levelized step, so Auto
	// costs what SchedulerLevelized costs; where the partition does gate
	// a region (mostly-idle netlists) that region is resolved once and
	// replayed.
	SchedulerAuto SchedulerKind = iota
	// SchedulerSequential is the demand-driven sequential engine: a single
	// work queue runs reactive handlers to a fixed point, and default
	// control re-scans the netlist dependency-aware until quiescent.
	SchedulerSequential
	// SchedulerParallel is the barrier-synchronized parallel fixed-point
	// engine: each reactive round is partitioned across a persistent
	// worker pool. Results are bit-identical to SchedulerSequential.
	SchedulerParallel
	// SchedulerLevelized is the static scheduling engine: at Build time
	// the per-kind signal dependency graph is condensed into strongly
	// connected components (Tarjan) and the component DAG is levelized.
	// Acyclic levels resolve in one deterministic sweep with no
	// fixed-point iteration; only genuinely cyclic components iterate,
	// driven by a worklist seeded from dirty signals. Results are
	// bit-identical to SchedulerSequential. With WithWorkers(n>1) given
	// after it, reactive rounds additionally run on the worker pool.
	SchedulerLevelized
	// SchedulerSparse is the activity-gated sparse scheduler: the
	// levelized engine restricted, per cycle, to the build-time-computed
	// active region of the netlist. Instances with no OnCycleStart
	// handler and no input a seed instance can ever reach are never
	// woken; their connections keep ("replay") the resolution they
	// settled to on the last full sweep instead of being reset and
	// re-resolved. A partition that gates nothing is reported but not
	// walked: such sessions run the levelized step, with the levelized
	// engine's exact metrics. Results are bit-identical to SchedulerSequential for
	// netlists observing the reactive-purity invariant (see DESIGN.md
	// Appendix C); scheduler metrics differ, since skipped work is the
	// point. Sim.InvalidateActivity forces a full re-resolution.
	SchedulerSparse
	// SchedulerPartitioned is the build-time partitioned parallel
	// engine: the module graph is sharded into connectivity-grown
	// regions (WithShards, default 16), the signal plane is laid out so
	// each shard's lanes occupy distinct cache lines, and every level of
	// the static schedule is pre-split per shard. Sessions run reactive
	// rounds as worker-affine phases — each worker claims its own
	// shards' queues without synchronization and steals leftovers from
	// the others — joined at a per-round barrier instead of per-round
	// channel dispatch. Results are bit-identical to
	// SchedulerSequential. WithWorkers is honored exactly as given
	// (default one), and each phase caps its live executors at
	// GOMAXPROCS, so over-provisioned sessions degrade to sequential
	// execution instead of regressing. See DESIGN.md Appendix H.
	SchedulerPartitioned
	// SchedulerWoven is the AOT-woven engine: at compile time the
	// levelized schedule is fused into specialized step kernels.
	// Connections whose endpoints bear no cycle-start or reactive
	// handlers and that sit in the acyclic sweep resolve without any
	// per-cycle interpretation — default-control resolution is folded to
	// a compile-time constant and replayed (or, when a port carries a
	// Control function, compiled into one fused closure with raw plane
	// stores); only handler-adjacent connections and the cyclic residue
	// keep the interpreted path, restricted to exactly that fallback
	// set. Unlike SchedulerSparse, the replayed region is accounted:
	// results *and* scheduler default/break counts are bit-identical to
	// SchedulerSequential (under the handler-locality and
	// control-function-purity contracts, DESIGN.md Appendix I).
	// WithWorkers is honored exactly as given and parallelizes the
	// fallback's reactive rounds. Composes with WithDataflowPrune: dead
	// connections never get a kernel. Sim.InvalidateActivity forces a
	// full interpreted sweep.
	SchedulerWoven
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedulerAuto:
		return "auto"
	case SchedulerSequential:
		return "sequential"
	case SchedulerParallel:
		return "parallel"
	case SchedulerLevelized:
		return "levelized"
	case SchedulerSparse:
		return "sparse"
	case SchedulerPartitioned:
		return "partitioned"
	case SchedulerWoven:
		return "woven"
	}
	return "invalid"
}

// WithScheduler selects the scheduling engine. All schedulers produce
// bit-identical per-cycle signal assignments and statistics; they differ
// only in host-time cost and in the scheduler metrics they report.
func WithScheduler(k SchedulerKind) BuildOption {
	return func(b *Builder) { b.sched = k }
}

// WithWorkers selects the number of scheduler workers (values below one
// are clamped to one). It is a pure count knob: the engine is chosen by
// WithScheduler alone, and SchedulerSequential always resolves to one
// worker. Under SchedulerParallel a count below two resolves to
// GOMAXPROCS.
func WithWorkers(n int) BuildOption {
	return func(b *Builder) {
		if n < 1 {
			n = 1
		}
		b.workers = n
	}
}

// WithShards sets the compile-time shard count for the partitioned
// scheduler (SchedulerPartitioned); values below one select the default
// (16), values above 1024 are clamped. Shards are a property of the
// compiled Program — every session stamped from it inherits the same
// partition and plane layout — while the worker count remains a session
// property: workers own the shard sets {w, w+k, ...} and steal across
// them, so any worker count runs correctly against any shard count.
// More shards than instances are clamped to one shard per instance.
// Ignored by every other scheduler.
func WithShards(n int) BuildOption {
	return func(b *Builder) {
		if n < 1 {
			n = 0 // default
		}
		if n > 1024 {
			n = 1024
		}
		b.shards = n
	}
}

// defaultParallelThreshold is the per-worker round size below which the
// parallel scheduler drains inline (default threshold = 128 × workers).
// Dispatching a round costs one goroutine wakeup per worker — tens of
// microseconds of scheduling latency the caller must absorb even when a
// woken worker claims no work — so splitting only pays once each worker's
// share of the batch outweighs its own wakeup (BENCH_2's workers=2
// regression: barrier latency exceeded the work on rounds of 2-4 cheap
// handlers).
const defaultParallelThreshold = 128

// WithParallelThreshold sets the minimum reactive-round size the
// parallel scheduler dispatches to the worker pool; smaller rounds drain
// inline on the calling goroutine, where dispatch latency would
// otherwise dominate. n <= 1 sends every round to the pool. The default
// is 128 × the worker count.
func WithParallelThreshold(n int) BuildOption {
	return func(b *Builder) {
		if n <= 1 {
			n = 1
		}
		b.parMin = n
	}
}

// WithSeed sets the simulator's deterministic random seed.
func WithSeed(seed int64) BuildOption {
	return func(b *Builder) { b.seed = seed }
}

// WithTracer attaches a Tracer to the simulator under construction.
// Repeated WithTracer options compose: every attached tracer observes
// every event.
func WithTracer(t Tracer) BuildOption {
	return func(b *Builder) { b.addTracer(t) }
}

// WithRegistry selects the template registry used by Instantiate. Only
// meaningful as a NewBuilder option — by Build time all instantiation has
// already happened.
func WithRegistry(r *Registry) BuildOption {
	return func(b *Builder) { b.reg = r }
}

// WithPostBuildCheck registers a validation hook that runs at the very
// end of Build, after the simulator is fully constructed but before it is
// returned. A non-nil error aborts construction and is returned from
// Build. Repeated options compose; hooks run in registration order. The
// static-analysis strict mode (internal/analysis.StrictOption, exposed as
// lse.WithStrictAnalysis) is built on this hook.
func WithPostBuildCheck(fn func(*Sim) error) BuildOption {
	return func(b *Builder) {
		if fn != nil {
			b.postBuild = append(b.postBuild, fn)
		}
	}
}

// WithMetrics enables scheduler metrics collection (see Metrics). The
// instrumented counters are cheap enough to leave on for production
// sweeps; when the option is absent, Sim.Metrics returns nil and the
// scheduler pays only a nil check per event.
func WithMetrics() BuildOption {
	return func(b *Builder) { b.metrics = true }
}
