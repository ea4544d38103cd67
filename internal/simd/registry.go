package simd

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	core "liberty/internal/core"
	"liberty/internal/lss"
)

// registry.go is the compiled-program cache: the "compile once, stamp
// many" half of the service. Submissions are deduped by an FNV-64a key
// over the spec text, the sorted defines and the canonical build
// options; a hit returns the cached *core.Program itself (pointer
// identity — the acceptance test pins this), a miss compiles outside the
// registry lock and publishes first-writer-wins, so two racing
// submissions of a new spec converge on one program. Capacity is
// enforced LRU: evicted entries merely leave the cache — sessions
// already stamped from them keep their program pointer and run on.

// programEntry is one cached compiled program plus its submission
// metadata. The prog field is immutable; lastUsed is guarded by the
// registry mutex; sessions is atomic (sessions detach on close from
// outside the registry lock).
type programEntry struct {
	id      string
	prog    *core.Program
	created time.Time

	lastUsed time.Time    // registry.mu
	sessions atomic.Int64 // live sessions stamped from this program
}

// info renders the entry for the wire. hit marks submit-time cache hits.
func (e *programEntry) info(hit bool) ProgramInfo {
	return ProgramInfo{
		ID:          e.id,
		Fingerprint: fmt.Sprintf("%016x", e.prog.Fingerprint()),
		Scheduler:   e.prog.Scheduler().String(),
		Instances:   e.prog.Instances(),
		Conns:       e.prog.Conns(),
		Sessions:    int(e.sessions.Load()),
		CacheHit:    hit,
		CreatedAt:   e.created,
	}
}

type registry struct {
	cap int
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*programEntry
}

func newRegistry(capacity int, now func() time.Time) *registry {
	return &registry{cap: capacity, now: now, entries: map[string]*programEntry{}}
}

// programKey hashes a submission into its cache identity: spec text,
// defines (sorted, with their dynamic types — 1 and "1" are different
// programs), the scheduler kind the options name — so "" and "sparse"
// are one program — and the strictness.
// The label name is excluded: it only positions error messages.
func programKey(req *SubmitProgramRequest, kind core.SchedulerKind) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "spec:%d:%s;", len(req.Spec), req.Spec)
	names := make([]string, 0, len(req.Defines))
	for n := range req.Defines {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "def:%s=%T:%v;", n, req.Defines[n], req.Defines[n])
	}
	fmt.Fprintf(h, "opt:%s/%s;", kind, req.Options.Strict)
	return fmt.Sprintf("p%016x", h.Sum64())
}

// lookupOrCompile returns the cached program for the submission,
// compiling and inserting it on a miss. The returned bool reports a
// cache hit. Compile errors surface as *APIError.
func (r *registry) lookupOrCompile(req *SubmitProgramRequest) (*programEntry, bool, error) {
	kind, opts, err := req.Options.buildOptions()
	if err != nil {
		return nil, false, &APIError{Code: CodeBadRequest, Status: CodeBadRequest.status(),
			Message: err.Error()}
	}
	key := programKey(req, kind)
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		e.lastUsed = r.now()
		r.mu.Unlock()
		return e, true, nil
	}
	r.mu.Unlock()

	name := req.Name
	if name == "" {
		name = "spec"
	}
	prog, err := lss.CompileFile(name, req.Spec, req.Defines, opts...)
	if err != nil {
		return nil, false, &APIError{Code: CodeSpecInvalid, Status: CodeSpecInvalid.status(),
			Message: fmt.Sprintf("specification does not compile: %v", err)}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		// A racing submission compiled the same key first; converge on its
		// program and drop ours, preserving pointer identity per key.
		e.lastUsed = r.now()
		return e, true, nil
	}
	e := &programEntry{id: key, prog: prog, created: r.now(), lastUsed: r.now()}
	r.entries[key] = e
	for len(r.entries) > r.cap {
		r.evictOldestLocked(key)
	}
	return e, false, nil
}

// evictOldestLocked drops the least-recently-used entry except keep.
func (r *registry) evictOldestLocked(keep string) {
	var victim string
	var oldest time.Time
	for id, e := range r.entries {
		if id == keep {
			continue
		}
		if victim == "" || e.lastUsed.Before(oldest) {
			victim, oldest = id, e.lastUsed
		}
	}
	if victim != "" {
		delete(r.entries, victim)
	}
}

// get returns the cached entry by id, refreshing its LRU position.
func (r *registry) get(id string) (*programEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if ok {
		e.lastUsed = r.now()
	}
	return e, ok
}

// list returns every cached entry, most recently used first.
func (r *registry) list() []ProgramInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	infos := make([]ProgramInfo, 0, len(r.entries))
	entries := make([]*programEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].lastUsed.After(entries[j].lastUsed) })
	for _, e := range entries {
		infos = append(infos, e.info(false))
	}
	return infos
}
