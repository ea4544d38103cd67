package simd

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"liberty/internal/analysis"
	core "liberty/internal/core"
)

// wire.go is the /v1 request/response vocabulary. These types are
// re-exported through the lse facade. A response field is never
// repurposed; it is removed only when it has read a constant, or
// duplicated another field, since a named change recorded in CHANGES.md.
// Request decoding is strict — a field that names nothing is LSD001 (see
// DESIGN.md Appendix F.3 for the API versioning rules).

// BuildOptions are the compile-time options of a submitted program. They
// are part of the program cache key by what they resolve to, not by how
// they are spelled: the same spec submitted with options that select the
// same engine and strictness shares one cached program.
type BuildOptions struct {
	// Scheduler selects the engine — "sparse", or omitted, which is the
	// same kind and one cache entry — or "sequential", the reference. Any
	// other name is LSD001 before anything compiles.
	// ProgramInfo.Scheduler reports the kind compiled; sessions always run
	// the kind their program was compiled for.
	Scheduler string `json:"scheduler,omitempty"`
	// Strict, when set to "warning", fails compilation when static
	// analysis finds a diagnostic at warning severity or above. Any other
	// non-empty value is LSD001 before anything compiles.
	Strict string `json:"strict,omitempty"`
}

// buildOptions converts the wire options into the scheduler kind they
// name and the core build options. Unknown names are CodeBadRequest
// material, reported before any compilation work happens.
func (o BuildOptions) buildOptions() (core.SchedulerKind, []core.BuildOption, error) {
	kind, err := core.ParseSchedulerKind(o.Scheduler)
	if err != nil {
		return 0, nil, err
	}
	strict, err := analysis.ParseStrict(o.Strict)
	if err != nil {
		return 0, nil, err
	}
	opts := []core.BuildOption{core.WithScheduler(kind)}
	if strict {
		opts = append(opts, analysis.StrictOption())
	}
	return kind, opts, nil
}

// SubmitProgramRequest is the POST /v1/programs body: one LSS
// specification plus the define overrides and build options it should
// compile under. Submitting an identical (spec, defines, options) triple
// again answers with the already-cached program — the compile happens
// once per key, not per client.
type SubmitProgramRequest struct {
	// Spec is the LSS specification source. Required.
	Spec string `json:"spec"`
	// Name labels source positions in compile errors (use a file name).
	// It does not participate in the cache key: two submissions differing
	// only by name dedupe onto one program.
	Name string `json:"name,omitempty"`
	// Defines predefine top-level let bindings (the lsc -D mechanism).
	Defines map[string]any `json:"defines,omitempty"`
	// Options are the compile-time build options.
	Options BuildOptions `json:"options,omitempty"`
}

// normalizeDefines rewrites JSON-decoded define values into the types
// the elaborator binds: numbers become int64 when integral, else
// float64 — the same int-then-float precedence lsc -D applies — and
// bools and strings pass through. Happens before the cache key is
// computed, so a define's wire spelling (8 vs 8.0) is its identity.
func normalizeDefines(defs map[string]any) error {
	for name, v := range defs {
		switch val := v.(type) {
		case json.Number:
			if n, err := strconv.ParseInt(val.String(), 10, 64); err == nil {
				defs[name] = n
			} else if f, err := val.Float64(); err == nil {
				defs[name] = f
			} else {
				return fmt.Errorf("define %q: unparsable number %q", name, val.String())
			}
		case bool, string:
		case float64: // a Go caller bypassing the wire decoder
			if val == float64(int64(val)) {
				defs[name] = int64(val)
			}
		case int:
			defs[name] = int64(val)
		case int64:
		default:
			return fmt.Errorf("define %q: values must be numbers, booleans or strings, not %T", name, v)
		}
	}
	return nil
}

// ProgramInfo describes one cached compiled program.
type ProgramInfo struct {
	ID string `json:"id"`
	// Fingerprint is the program's structural hash (hex); snapshots embed
	// it, and restore rejects state from a different structure.
	Fingerprint string `json:"fingerprint"`
	Scheduler   string `json:"scheduler"`
	Instances   int    `json:"instances"`
	Conns       int    `json:"conns"`
	// Sessions counts the program's live sessions.
	Sessions int `json:"sessions"`
	// CacheHit is set on submit responses: true when the submission
	// deduped onto an already-compiled program.
	CacheHit  bool      `json:"cache_hit,omitempty"`
	CreatedAt time.Time `json:"created_at"`
}

// CreateSessionRequest is the POST /v1/programs/{id}/sessions body. An
// empty body stamps a session with seed 0 and no metrics.
type CreateSessionRequest struct {
	// Seed is the session's deterministic random seed.
	Seed int64 `json:"seed,omitempty"`
	// Metrics enables scheduler metrics collection for this session.
	Metrics bool `json:"metrics,omitempty"`
}

// SessionInfo describes one session.
type SessionInfo struct {
	ID        string `json:"id"`
	ProgramID string `json:"program_id"`
	Seed      int64  `json:"seed"`
	Cycle     uint64 `json:"cycle"`
	// State is "live" (Sim in memory) or "parked" (checkpointed to disk,
	// restored on demand by the next access).
	State     string    `json:"state"`
	CreatedAt time.Time `json:"created_at"`
	LastUsed  time.Time `json:"last_used"`
}

// StepRequest is the POST /v1/sessions/{id}/step (and .../run) body.
type StepRequest struct {
	// Cycles to advance; step defaults to 1, run requires >= 1.
	Cycles uint64 `json:"cycles,omitempty"`
}

// StepResponse reports where the session landed.
type StepResponse struct {
	// Cycle is the session's cycle counter after the advance.
	Cycle uint64 `json:"cycle"`
	// Ran is how many cycles this request actually simulated.
	Ran uint64 `json:"ran"`
}

// ProgramList is the GET /v1/programs response.
type ProgramList struct {
	Programs []ProgramInfo `json:"programs"`
}

// SessionList is the GET /v1/sessions response.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}
