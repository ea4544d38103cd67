// Package lse is the public surface of the Liberty Simulation
// Environment: the structural, composable modeling engine (signals,
// ports, module templates, the reactive scheduler), the template registry
// the component libraries publish into, the LSS specification language
// front end, and the observability layer (scheduler metrics, structured
// event traces, statistics exporters).
//
// # Quickstart (Go API)
//
// Simulators are assembled by a Builder and configured with functional
// options at build time:
//
//	b := lse.NewBuilder()
//	src, _ := b.Instantiate("pcl.source", "src", lse.Params{"count": 100})
//	q, _ := b.Instantiate("pcl.queue", "q", lse.Params{"capacity": 4})
//	snk, _ := b.Instantiate("pcl.sink", "snk", nil)
//	b.Connect(src, "out", q, "in")
//	b.Connect(q, "out", snk, "in")
//	sim, _ := b.Build(lse.WithSeed(1))
//	sim.Run(1000)
//	sim.Stats().Dump(os.Stdout)
//
// # Scheduler selection
//
// There is one engine and one reference. The engine (SchedulerSparse,
// the default) is statically scheduled —
// at build time the signal dependency graph is condensed into strongly
// connected components and levelized, so acyclic regions resolve in one
// deterministic sweep and only what the sweep leaves in or downstream of
// a genuine cycle is resolved by the reference's own default round — and
// runs that schedule each cycle over only the
// combinational clusters something was offered to: a cluster (a router,
// say) whose cycle-start signals read as they did when it last resolved
// with no data offered replays that resolution instead of re-deriving it,
// and regions unreachable from any cycle-start handler resolve exactly
// once (lsc -schedule prints the plan). SchedulerSequential is the
// reference: the classic dynamic fixed point, the executable semantics the
// engine is tested against. Both produce bit-identical per-cycle signal
// assignments and statistics; pick the reference when debugging a
// suspected engine bug:
//
//	sim, _ := lse.LoadLSS(src)              // the engine
//	lse.WriteScheduleReport(os.Stderr, sim) // SCCs, levels, break sites, clusters
//	ref, _ := lse.LoadLSS(src, lse.WithScheduler(lse.SchedulerSequential))
//
// With no data offered, a reactive handler's drives must be a function
// of its observed input signals: a drive that depends on Now(),
// randomness or state is made from a cycle-start handler, which the
// engine observes and which needs no marking. Base.MarkSequential
// declares a buffer-like module (nothing observed on one port reaches
// another within a cycle), which lets the engine cut its dependency graph
// there: the static sweep orders defaults across it, no cycle runs
// through it, and the clusters split. WithActivityCheck holds the rule
// and the mark to account. Sim.InvalidateActivity forces one full
// re-sweep after out-of-band state mutation.
//
// # Quickstart (LSS)
//
// LoadLSS parses, elaborates and constructs in one call:
//
//	sim, _ := lse.LoadLSS(`
//	    instance src : pcl.source(count = 100);
//	    instance q   : pcl.queue(capacity = 4);
//	    instance snk : pcl.sink();
//	    src.out -> q.in;
//	    q.out -> snk.in;
//	`, lse.WithSeed(1))
//
// # Observability
//
// Building with WithMetrics turns on scheduler metrics: reactive wakes,
// fixed-point iterations, default-control fallbacks per signal kind, and a
// sampled per-instance react-time profile; WithTracer attaches an event
// tracer. The obs exporters turn a simulator into machine-readable
// artifacts:
//
//	ev := lse.NewEventTracer(256).FilterInstances("router*")
//	sim, _ := b.Build(lse.WithMetrics(), lse.WithTracer(ev))
//	sim.Run(10_000)
//	lse.WriteStatsJSON(os.Stdout, sim)    // full JSON snapshot
//	lse.WriteStatsCSV(f, sim)             // flat CSV rows
//	lse.WriteHotReport(os.Stderr, sim, 8) // hottest modules by react time
//	ev.WriteText(os.Stderr)               // last 256 filtered signal events
//
// Long sweeps are cancellable via Sim.RunContext / Sim.RunUntilContext,
// and the service layer (see below, and cmd/orion -metrics-addr) serves
// live JSON snapshots over HTTP while a sweep runs.
//
// # Program vs Sim
//
// A Program is the immutable compiled form of a netlist — static
// schedule, cluster plan and the assembly recipe — and a Sim is one behavioral session over it. Compile (or
// CompileLSS) builds the Program once; Program.NewSim stamps fresh,
// independent sessions with zero recompilation, safe to run concurrently
// from many goroutines. The first NewSim called without session options
// is the netlist Compile validated, handed over instead of rebuilt:
//
//	prog, _ := lse.CompileLSS(src)
//	for i := 0; i < 1000; i++ {
//	    go func(seed int64) {
//	        sim, _ := prog.NewSim(lse.WithSeed(seed))
//	        defer sim.Close()
//	        sim.Run(10_000)
//	    }(int64(i))
//	}
//
// Sessions checkpoint with Sim.Snapshot and resume with Program.Restore;
// a restored run is bit-identical to an uninterrupted one. A module with
// lifecycle handlers opts into checkpointing by declaring its mutable
// fields once in its constructor with Base.Checkpoint.
//
// # Simulation as a service
//
// NewServer (the engine behind cmd/lsd) puts the Program/Sim split on
// the network: a versioned /v1 HTTP/JSON API where POST /v1/programs
// dedupes submitted specs into an LRU cache of compiled Programs, and
// per-session endpoints stamp, step, observe, checkpoint and restore
// concurrent sessions against the cached programs. All error responses
// share one JSON envelope {code, message, details} with stable LSD0xx
// codes:
//
//	srv, _ := lse.NewServer(lse.ServerConfig{SessionTTL: time.Hour})
//	defer srv.Close()
//	srv.ListenAndServe(ctx, ":8123") // graceful shutdown when ctx ends
//
// SetLocal serves one in-process simulator at the top-level /metrics —
// what lsc -metrics-addr and orion -metrics-addr serve. ServeClient is
// the matching typed client.
//
// # Supported surface
//
// This package is the single supported API: the Builder with functional
// options (NewBuilder/Build with WithSeed, WithScheduler, WithTracer,
// WithRegistry, WithMetrics, WithStrictAnalysis), the Program/Sim split
// (Compile, CompileLSS, CompileLSSFile, Program.NewSim, Sim.Snapshot,
// Program.Restore), the LSS entry points (LoadLSS, LoadLSSFile,
// ParseLSS), the analysis pipeline (Lint, Analyze) and the observability
// exporters below. A Sim is stepped by one goroutine at a time;
// parallelism runs across sessions of one Program.
//
// The component libraries (pcl, upl, ccl, mpl, nilib) register their
// templates into DefaultRegistry from their init functions; importing
// them (directly or via this package) makes their templates available to
// both APIs.
package lse

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"liberty/internal/analysis"
	core "liberty/internal/core"
	"liberty/internal/lss"
	"liberty/internal/obs"
	"liberty/internal/simd"

	// The component libraries register their templates on import.
	_ "liberty/internal/ccl"
	_ "liberty/internal/pcl"
)

// Engine types, re-exported.
type (
	// Builder assembles netlists and constructs simulators.
	Builder = core.Builder
	// BuildOption configures a simulator under construction.
	BuildOption = core.BuildOption
	// Program is the immutable compiled form of a netlist; NewSim stamps
	// concurrent sessions from it and Restore resumes checkpoints.
	Program = core.Program
	// Sim is an executable simulator.
	Sim = core.Sim
	// Instance is a module instance.
	Instance = core.Instance
	// Base is embedded by every module implementation.
	Base = core.Base
	// Composite is a hierarchical instance built from sub-instances.
	Composite = core.Composite
	// Port is a named bundle of 3-signal connections.
	Port = core.Port
	// PortOpts customizes port arity and default control.
	PortOpts = core.PortOpts
	// ControlFn overrides default handshake resolution.
	ControlFn = core.ControlFn
	// Conn is one connection (data/enable/ack signal triple).
	Conn = core.Conn
	// Status is a signal resolution state.
	Status = core.Status
	// SigKind identifies one of a connection's three signals.
	SigKind = core.SigKind
	// SchedulerKind selects the engine or the reference.
	SchedulerKind = core.SchedulerKind
	// ScheduleInfo describes the engine's static schedule and cluster plan.
	ScheduleInfo = core.ScheduleInfo
	// Params carries template customization values.
	Params = core.Params
	// Template is a registered, reusable module description.
	Template = core.Template
	// Registry maps template names to templates.
	Registry = core.Registry
	// Tracer observes engine activity.
	Tracer = core.Tracer
	// MultiTracer fans callbacks out to several tracers.
	MultiTracer = core.MultiTracer
	// StatSet is the simulator's statistics collection.
	StatSet = core.StatSet
	// Counter is a statistics counter.
	Counter = core.Counter
	// Histogram is a statistics histogram with percentile estimates.
	Histogram = core.Histogram
	// Metrics aggregates scheduler observability counters.
	Metrics = core.Metrics
	// InstanceMetric is one instance's react profile.
	InstanceMetric = core.InstanceMetric
	// ContractError reports a communication-contract violation.
	ContractError = core.ContractError
	// BuildError reports a netlist assembly problem.
	BuildError = core.BuildError
	// ParamError reports a missing or ill-typed parameter.
	ParamError = core.ParamError
)

// Observability types, re-exported from the obs layer.
type (
	// EventTracer captures structured events into a ring buffer.
	EventTracer = obs.EventTracer
	// TextTracer writes a readable signal trace.
	TextTracer = obs.TextTracer
	// Event is one structured trace record.
	Event = obs.Event
	// Snapshot is a machine-readable statistics/metrics capture.
	Snapshot = obs.Snapshot
	// ScheduleStats is the snapshot's static-schedule section.
	ScheduleStats = obs.ScheduleStats
)

// Service types, re-exported from the simd layer (the engine behind
// cmd/lsd — see the "Simulation as a service" section above and the
// README quick-start).
type (
	// Server is the simulation service: program cache, session registry
	// and the /v1 HTTP surface. SetLocal serves one in-process simulator
	// at its top-level /metrics.
	Server = simd.Server
	// ServerConfig tunes a Server (cache capacity, session cap and TTL,
	// park-to-disk policy, step-worker bound).
	ServerConfig = simd.Config
	// ServeClient is the typed client for a Server's /v1 API.
	ServeClient = simd.Client
	// ServeError is the unified API error envelope payload; its Code
	// field carries the stable LSD0xx identifiers.
	ServeError = simd.APIError
	// ErrorCode is a stable LSD0xx API error identifier.
	ErrorCode = simd.ErrorCode
	// SubmitProgramRequest is the POST /v1/programs wire type.
	SubmitProgramRequest = simd.SubmitProgramRequest
	// ProgramBuildOptions are a submitted program's compile options.
	ProgramBuildOptions = simd.BuildOptions
	// ProgramInfo describes one cached compiled program.
	ProgramInfo = simd.ProgramInfo
	// CreateSessionRequest is the session-stamp wire type.
	CreateSessionRequest = simd.CreateSessionRequest
	// SessionInfo describes one managed session.
	SessionInfo = simd.SessionInfo
	// StepRequest asks a session to advance N cycles.
	StepRequest = simd.StepRequest
	// StepResponse reports where a session landed.
	StepResponse = simd.StepResponse
)

// NewServer returns a ready-to-mount simulation service; see
// Server.Handler, Server.ListenAndServe and Server.Close.
func NewServer(cfg ServerConfig) (*Server, error) { return simd.NewServer(cfg) }

// Static-analysis types, re-exported from the analysis engine (see the
// "Static analysis & linting" section of the README and cmd/lslint).
type (
	// Severity ranks a diagnostic's impact; values double as lslint exit
	// codes.
	Severity = analysis.Severity
	// Diagnostic is one static-analysis finding.
	Diagnostic = analysis.Diagnostic
	// AnalysisReport is an ordered collection of diagnostics with text
	// and JSON renderers.
	AnalysisReport = analysis.Report
	// StrictAnalysisError is the error Build returns under
	// WithStrictAnalysis when a diagnostic reaches warning severity.
	StrictAnalysisError = analysis.StrictError
)

// Diagnostic severities.
const (
	SeverityInfo    = analysis.Info
	SeverityWarning = analysis.Warning
	SeverityError   = analysis.Error
)

// ParseStrict converts a strict level into whether strict analysis is
// on: "" is off, "warning" on (the lsc -strict and /v1 "strict" values).
func ParseStrict(name string) (bool, error) { return analysis.ParseStrict(name) }

// WithStrictAnalysis makes Build run every netlist analysis pass after
// construction and fail with a *StrictAnalysisError when any diagnostic
// reaches warning severity — it rejects a netlist with a combinational
// cycle while tolerating the informational reports (an optional port
// left unconnected):
//
//	sim, err := lse.LoadLSS(src, lse.WithStrictAnalysis())
func WithStrictAnalysis() BuildOption { return analysis.StrictOption() }

// Lint runs the full static-analysis pipeline over one LSS specification
// — parse, spec passes, build, netlist passes, `lse:ignore` suppression —
// and returns the report; broken specs yield LSE000 diagnostics rather
// than errors. name labels positions in the report (use the file name).
func Lint(name, src string) *AnalysisReport { return analysis.LintSource(name, src) }

// Analyze runs the netlist analysis passes over a built simulator,
// whether it came from a spec or straight from the Go API (diagnostics
// are positionless in the latter case).
func Analyze(s *Sim) *AnalysisReport { return analysis.AnalyzeSim(s) }

// Signal status values.
const (
	Unknown = core.Unknown
	No      = core.No
	Yes     = core.Yes
)

// Port directions.
const (
	In  = core.In
	Out = core.Out
)

// Signal kinds.
const (
	SigData   = core.SigData
	SigEnable = core.SigEnable
	SigAck    = core.SigAck
)

// Scheduler kinds, accepted by WithScheduler. Both produce bit-identical
// per-cycle signal assignments and statistics; they differ only in
// host-time cost (and in their *scheduler metrics*: the engine counts
// replayed work once, not per cycle).
const (
	// SchedulerSparse is the engine, and the default: the static sweep,
	// then the reference's default round for the cyclic residue, run each
	// cycle over the clusters that open.
	SchedulerSparse = core.SchedulerSparse
	// SchedulerSequential is the reference: the demand-driven sequential
	// fixed point the engine is tested against.
	SchedulerSequential = core.SchedulerSequential
)

// ParseSchedulerKind converts a scheduler name into its kind: "sparse"
// (and "") is the engine, "sequential" the reference.
func ParseSchedulerKind(name string) (SchedulerKind, error) {
	return core.ParseSchedulerKind(name)
}

// NewBuilder returns a netlist builder over DefaultRegistry, configured
// by opts.
func NewBuilder(opts ...BuildOption) *Builder { return core.NewBuilder(opts...) }

// NewRegistry returns an empty template registry.
func NewRegistry() *Registry { return core.NewRegistry() }

// DefaultRegistry is the process-wide template registry.
var DefaultRegistry = core.DefaultRegistry

// Register adds a template to DefaultRegistry.
func Register(t *Template) { core.Register(t) }

// RegisterFn publishes a named algorithmic-parameter function for use
// from textual specifications.
func RegisterFn(name string, fn any) { core.RegisterFn(name, fn) }

// Sub composes a hierarchical child-instance name.
func Sub(parent, child string) string { return core.Sub(parent, child) }

// PortOf returns an instance's named port, following composite exports.
func PortOf(inst Instance, name string) (*Port, error) { return core.PortOf(inst, name) }

// Build options.
var (
	// WithSeed sets the deterministic random seed.
	WithSeed = core.WithSeed
	// WithScheduler selects the engine (SchedulerSparse, the default) or
	// the reference (SchedulerSequential).
	WithScheduler = core.WithScheduler
	// WithTracer attaches a tracer; repeated options compose.
	WithTracer = core.WithTracer
	// WithRegistry selects the template registry (NewBuilder only).
	WithRegistry = core.WithRegistry
	// WithMetrics enables scheduler metrics collection.
	WithMetrics = core.WithMetrics
	// WithActivityCheck makes the engine evaluate every cluster
	// it would have closed and compare it with the cluster's idle
	// signature: the check a template author signs MarkSequential, or a
	// reactive handler's data-free drives, against.
	WithActivityCheck = core.WithActivityCheck
)

// LoadLSS parses and elaborates an LSS specification onto a fresh builder
// configured by opts, and constructs the simulator — the full Figure 1
// pipeline in one call, elaborating once: the session returned is the
// netlist the compile validated. It is bound to a fresh compiled Program
// (Sim.Program), so further sessions can be stamped from it without
// recompiling; use CompileLSS directly when many sessions are the point.
func LoadLSS(src string, opts ...BuildOption) (*Sim, error) {
	return lss.Load(src, nil, opts...)
}

// Defines collects predefined top-level bindings from repeated -D
// name=value command-line flags (a flag.Value; lsc and lslint take it).
// A value is an integer, else a float, else a bool, else a string: the
// int-then-float precedence the /v1 "defines" field applies too.
type Defines map[string]any

func (d Defines) String() string { return "" }

// Set parses one name=value.
func (d Defines) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if n, err := strconv.ParseInt(val, 0, 64); err == nil {
		d[name] = n
	} else if f, err := strconv.ParseFloat(val, 64); err == nil {
		d[name] = f
	} else if b, err := strconv.ParseBool(val); err == nil {
		d[name] = b
	} else {
		d[name] = val
	}
	return nil
}

// LoadLSSFile is LoadLSS with a source file name and predefined top-level
// bindings that shadow same-named `let` statements (the mechanism behind
// lsc -D overrides; nil for none): parse errors, build errors and
// static-analysis diagnostics then carry name:line positions.
func LoadLSSFile(name, src string, defines map[string]any, opts ...BuildOption) (*Sim, error) {
	return lss.LoadFile(name, src, defines, opts...)
}

// Compile runs a Go assembly recipe once and compiles the resulting
// netlist into a shared Program; Program.NewSim then stamps fresh
// sessions without re-running scheduling, cluster planning or lane
// election. The recipe must be deterministic — it is re-run for every
// session after the first to stamp fresh instance state, validated
// against the compiled program's structural fingerprint; the first
// option-less NewSim is the netlist Compile validated.
func Compile(assemble func(*Builder) error, opts ...BuildOption) (*Program, error) {
	return core.Compile(assemble, opts...)
}

// CompileLSS parses an LSS specification once and compiles it into a
// shared Program whose recipe re-elaborates the parsed spec for every
// session after the first (see Compile).
func CompileLSS(src string, opts ...BuildOption) (*Program, error) {
	return lss.Compile(src, nil, opts...)
}

// CompileLSSFile is CompileLSS with a source file name and predefined
// top-level bindings that shadow same-named `let` statements (the lsc -D
// override mechanism; nil for none): parse errors, build errors and
// analysis diagnostics then carry name:line positions.
func CompileLSSFile(name, src string, defines map[string]any, opts ...BuildOption) (*Program, error) {
	return lss.CompileFile(name, src, defines, opts...)
}

// ParseLSS parses a specification without elaborating it.
func ParseLSS(src string) (*lss.File, error) { return lss.Parse(src) }

// WriteDot renders a simulator's netlist as a Graphviz digraph for
// structural visualization, returning the first writer error.
func WriteDot(w io.Writer, s *Sim) error { return obs.WriteDot(w, s) }

// NewVCDTracer returns a tracer writing a VCD waveform of every
// connection's handshake signals.
func NewVCDTracer(w io.Writer) *obs.VCDTracer { return obs.NewVCDTracer(w) }

// NewEventTracer returns a structured event tracer keeping the last
// capacity signal events; attach it with WithTracer.
func NewEventTracer(capacity int) *EventTracer { return obs.NewEventTracer(capacity) }

// TakeSnapshot captures a simulator's statistics and scheduler metrics.
func TakeSnapshot(s *Sim) Snapshot { return obs.TakeSnapshot(s) }

// WriteStatsJSON writes a simulator's snapshot to w as indented JSON.
func WriteStatsJSON(w io.Writer, s *Sim) error { return obs.WriteJSON(w, s) }

// WriteStatsCSV writes a simulator's snapshot to w as flat CSV rows.
func WriteStatsCSV(w io.Writer, s *Sim) error { return obs.WriteCSV(w, s) }

// WriteHotReport writes the per-instance "hot module" react-time report
// (requires a simulator built with WithMetrics).
func WriteHotReport(w io.Writer, s *Sim, topN int) error { return obs.WriteHotReport(w, s, topN) }

// WriteScheduleReport writes a readable dump of the static schedule and
// cluster plan the engine computed at Build time — SCC structure, sweep
// levels, cyclic residues, cycle-break sites and clusters. It is an error
// under the reference, which has neither.
func WriteScheduleReport(w io.Writer, s *Sim) error { return obs.WriteScheduleReport(w, s) }
