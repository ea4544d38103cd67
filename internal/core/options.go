package core

import "fmt"

// BuildOption configures the simulator under construction. Options are
// accepted by NewBuilder and by Build; the last option to touch a setting
// wins, except WithTracer, which composes.
type BuildOption func(*Builder)

// SchedulerKind selects what resolves each cycle's signals: the engine,
// or the reference it is tested against.
type SchedulerKind uint8

const (
	// SchedulerSparse is the engine, and the zero value. At compile time
	// the dependency graph is condensed into strongly connected components and
	// levelized: acyclic levels default in one statically ordered sweep,
	// and the residue inside or downstream of a dependency cycle resolves
	// by the reference's own default round (schedule.go). Each cycle that
	// sweep runs over only the
	// combinational clusters something was offered to: a cluster whose
	// cycle-start signals read as they did when it last resolved with no
	// data offered closes for the cycle — its connections keep ("replay")
	// that resolution and its reactive handlers are not woken (sparse.go);
	// a cluster no cycle-start handler can reach is decided the same way,
	// from an empty frontier. Results are bit-identical to
	// SchedulerSequential for netlists observing the reactive-purity
	// invariant (DESIGN.md Appendix C; WithActivityCheck checks it);
	// scheduler metrics differ, since skipped work is the point. A tracer keeps every cluster open.
	// Sim.InvalidateActivity forces a full re-resolution.
	SchedulerSparse SchedulerKind = iota
	// SchedulerSequential is the reference (reference.go): one work queue
	// runs reactive handlers to a fixed point, and default control re-scans
	// the netlist dependency-aware until quiescent. It is the executable
	// semantics the engine is held to; select it when debugging a suspected
	// engine bug.
	SchedulerSequential
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedulerSparse:
		return "sparse"
	case SchedulerSequential:
		return "sequential"
	}
	return "invalid"
}

// ParseSchedulerKind is the one parser behind lsc -scheduler and the /v1
// "scheduler" field. The empty name (an omitted wire field) and "sparse"
// are the engine; "sequential" is the reference.
func ParseSchedulerKind(name string) (SchedulerKind, error) {
	switch name {
	case "", "sparse":
		return SchedulerSparse, nil
	case "sequential":
		return SchedulerSequential, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q (want sparse or sequential)", name)
}

// WithScheduler selects the engine or the reference. Both produce
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
// Build. Repeated options compose; hooks run in registration order. Hooks
// run only where a netlist is compiled — Compile, or a Builder's Build
// outside it — and never on the sessions Program.NewSim and
// Program.Restore stamp, whose netlist the structural fingerprint proves
// identical to the compiled one. The static-analysis strict mode
// (internal/analysis.StrictOption, exposed as lse.WithStrictAnalysis) is
// built on this hook.
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
