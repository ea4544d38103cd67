package core

import "fmt"

// BuildOption configures the simulator under construction. Options are
// accepted by NewBuilder and by Build; the last option to touch a setting
// wins, except WithTracer, which composes.
type BuildOption func(*Builder)

// SchedulerKind selects the engine that resolves each cycle's signals.
type SchedulerKind uint8

const (
	// SchedulerAuto lets Build choose: currently the activity-gated
	// sparse scheduler, bit-identical to the sequential fixed point.
	SchedulerAuto SchedulerKind = iota
	// SchedulerSequential is the demand-driven sequential engine: a single
	// work queue runs reactive handlers to a fixed point, and default
	// control re-scans the netlist dependency-aware until quiescent.
	SchedulerSequential
	// SchedulerLevelized is the static scheduling engine: at Build time
	// the per-kind signal dependency graph is condensed into strongly
	// connected components (Tarjan) and the component DAG is levelized.
	// Acyclic levels resolve in one deterministic sweep with no
	// fixed-point iteration; only genuinely cyclic components iterate,
	// driven by a worklist seeded from dirty signals. Results are
	// bit-identical to SchedulerSequential.
	SchedulerLevelized
	// SchedulerSparse is the activity-gated sparse scheduler: the
	// levelized engine, run each cycle over only the combinational
	// clusters something was offered to. A cluster whose cycle-start
	// signals read as they did when it last resolved with no data offered
	// closes for the cycle: its connections keep ("replay") that
	// resolution and its reactive handlers are not woken; clusters no
	// cycle-start handler can reach resolve once and are held. Results
	// are bit-identical to SchedulerSequential for netlists observing the
	// reactive-purity invariant (see DESIGN.md Appendix C;
	// WithActivityCheck checks it); scheduler metrics differ, since
	// skipped work is the point. A tracer keeps every cluster open.
	// Sim.InvalidateActivity forces a full re-resolution.
	SchedulerSparse
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
	// Composes with WithDataflowPrune: dead connections never get a
	// kernel. Sim.InvalidateActivity forces a full interpreted sweep.
	SchedulerWoven
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedulerAuto:
		return "auto"
	case SchedulerSequential:
		return "sequential"
	case SchedulerLevelized:
		return "levelized"
	case SchedulerSparse:
		return "sparse"
	case SchedulerWoven:
		return "woven"
	}
	return "invalid"
}

// ParseSchedulerKind is the inverse of SchedulerKind.String — the one
// parser behind lsc -scheduler and the /v1 "scheduler" field. The empty
// name is Auto (an omitted wire field). "parallel" and "partitioned", the
// multi-worker engines removed in PR 19 (DESIGN.md Appendix H), stay
// accepted for one release as aliases of Auto; removed reports that the
// name was one of them, so a front end can tell the user what actually
// runs.
func ParseSchedulerKind(name string) (kind SchedulerKind, removed bool, err error) {
	switch name {
	case "", "auto":
		return SchedulerAuto, false, nil
	case "sequential":
		return SchedulerSequential, false, nil
	case "levelized":
		return SchedulerLevelized, false, nil
	case "sparse":
		return SchedulerSparse, false, nil
	case "woven":
		return SchedulerWoven, false, nil
	case "parallel", "partitioned":
		return SchedulerAuto, true, nil
	}
	return 0, false, fmt.Errorf("unknown scheduler %q (want auto, sequential, levelized, sparse or woven)", name)
}

// WithScheduler selects the scheduling engine. All schedulers produce
// bit-identical per-cycle signal assignments and statistics; they differ
// only in host-time cost and in the scheduler metrics they report.
func WithScheduler(k SchedulerKind) BuildOption {
	return func(b *Builder) { b.sched = k }
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
