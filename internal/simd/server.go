package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	core "liberty/internal/core"
	"liberty/internal/obs"
)

// Config tunes a Server. The zero value is a sensible default for every
// field.
type Config struct {
	// ProgramCache is the compiled-program LRU capacity (default 16).
	ProgramCache int
	// MaxSessions caps concurrent sessions, live or parked (default
	// 1024); at capacity, session creation answers 503 LSD007.
	MaxSessions int
	// StepWorkers bounds how many step/run requests simulate at once
	// across all sessions (default 2×GOMAXPROCS). Excess requests wait.
	StepWorkers int
	// ParkAfter is the idle duration after which a session is
	// checkpointed to disk and its Sim closed, to be restored on demand
	// by its next access (0 = never park).
	ParkAfter time.Duration
	// SessionTTL is the idle duration after which a session is evicted
	// entirely, checkpoint included (0 = never evict).
	SessionTTL time.Duration
	// CheckpointDir holds parked sessions' checkpoints. Defaults to a
	// fresh temp directory when parking is enabled.
	CheckpointDir string

	// now overrides the clock in tests.
	now func() time.Time
}

func (c *Config) fill() error {
	if c.ProgramCache <= 0 {
		c.ProgramCache = 16
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.StepWorkers <= 0 {
		c.StepWorkers = 2 * runtime.GOMAXPROCS(0)
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.ParkAfter > 0 && c.CheckpointDir == "" {
		dir, err := os.MkdirTemp("", "lsd-checkpoints-")
		if err != nil {
			return fmt.Errorf("simd: checkpoint dir: %w", err)
		}
		c.CheckpointDir = dir
	}
	return nil
}

// Server is the simulation service: a program cache, a session registry
// and the /v1 HTTP surface over them. Create one with NewServer, mount
// Handler (or call ListenAndServe), and Close it when done.
type Server struct {
	cfg   Config
	progs *registry
	mux   *http.ServeMux
	sem   chan struct{} // step-worker bound

	mu       sync.Mutex
	sessions map[string]*session
	nextSess uint64

	// local is the in-process simulator served at the top-level
	// /metrics; swapped by SetLocal as a sweep moves between operating
	// points.
	local atomic.Pointer[core.Sim]

	janitorStop chan struct{}
	janitorDone chan struct{}
	closeOnce   sync.Once
}

// NewServer returns a ready-to-mount service. It panics only on an
// unusable checkpoint directory, which is a deployment error.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		progs:    newRegistry(cfg.ProgramCache, cfg.now),
		sem:      make(chan struct{}, cfg.StepWorkers),
		sessions: map[string]*session{},
	}
	s.mux = s.routes()
	if cfg.ParkAfter > 0 || cfg.SessionTTL > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s, nil
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/programs", s.handleSubmit)
	mux.HandleFunc("GET /v1/programs", s.handleListPrograms)
	mux.HandleFunc("GET /v1/programs/{id}", s.handleProgramInfo)
	mux.HandleFunc("POST /v1/programs/{id}/sessions", s.handleCreateSession)
	mux.HandleFunc("POST /v1/programs/{id}/sessions/restore", s.handleRestoreSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionInfo)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleStep)
	mux.HandleFunc("POST /v1/sessions/{id}/run", s.handleRun)
	mux.HandleFunc("GET /v1/sessions/{id}/observe", s.handleObserve)
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleSnapshot)
	// The process's own pages: the SetLocal simulator's statistics and
	// the runtime's expvar page (memstats, cmdline).
	mux.HandleFunc("GET /metrics", s.handleLocalMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// Handler returns the server's HTTP surface. Unknown endpoints answer
// the same JSON error envelope as everything else.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler, funneling mux misses (unknown
// paths, wrong methods) through the unified error envelope.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		writeError(w, CodeNotFound, "no endpoint %s %s", r.Method, r.URL.Path)
		return
	}
	// Serve through the mux (not the looked-up handler directly) so it
	// binds the pattern's path values onto the request.
	s.mux.ServeHTTP(w, r)
}

// SetLocal publishes sim as the simulator served at the top-level
// /metrics, replacing any previous one; a long sweep calls it to follow
// its current operating point. Safe from any goroutine.
func (s *Server) SetLocal(sim *core.Sim) { s.local.Store(sim) }

// ListenAndServe serves the API on addr until ctx is cancelled, then
// shuts the listener down gracefully (in-flight requests get up to five
// seconds to finish) and returns nil — the clean-exit path lsd and the
// metrics-serving CLIs ride on SIGINT. A listener failure returns the
// error immediately.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(sctx)
		<-errc // always http.ErrServerClosed after Shutdown
		return err
	}
}

// Close stops the janitor and releases every session (worker pools,
// checkpoint files). The HTTP surface must already be quiesced (see
// ListenAndServe); Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.janitorStop != nil {
			close(s.janitorStop)
			<-s.janitorDone
		}
		s.mu.Lock()
		sessions := s.sessions
		s.sessions = map[string]*session{}
		s.mu.Unlock()
		for _, ss := range sessions {
			ss.mu.Lock()
			ss.close()
			ss.mu.Unlock()
		}
	})
}

// janitor periodically parks and evicts idle sessions.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	interval := s.cfg.ParkAfter
	if interval == 0 || (s.cfg.SessionTTL > 0 && s.cfg.SessionTTL < interval) {
		interval = s.cfg.SessionTTL
	}
	interval /= 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.sweepIdle(s.cfg.now())
		}
	}
}

// sweepIdle applies the park and TTL policies as of now. Sessions busy
// with an in-flight mutation are skipped (TryLock) and caught on a later
// sweep.
func (s *Server) sweepIdle(now time.Time) {
	s.mu.Lock()
	candidates := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		candidates = append(candidates, ss)
	}
	s.mu.Unlock()
	for _, ss := range candidates {
		if !ss.mu.TryLock() {
			continue
		}
		ss.ptr.Lock()
		idle := now.Sub(ss.lastUsed)
		live, closed := ss.sim != nil, ss.closed
		ss.ptr.Unlock()
		switch {
		case closed:
		case s.cfg.SessionTTL > 0 && idle >= s.cfg.SessionTTL:
			s.drop(ss)
		case live && s.cfg.ParkAfter > 0 && idle >= s.cfg.ParkAfter:
			// Park failures (full disk, unmarshalable module) keep the
			// session live; the next sweep retries.
			_ = ss.park(s.cfg.CheckpointDir)
		}
		ss.mu.Unlock()
	}
}

// drop removes a session from the table and closes it. The caller holds
// ss.mu.
func (s *Server) drop(ss *session) {
	s.mu.Lock()
	delete(s.sessions, ss.id)
	s.mu.Unlock()
	ss.close()
}

// session looks a live-or-parked session up by id.
func (s *Server) session(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.sessions[id]
	return ss, ok
}

// decodeJSON decodes a JSON request body into v, tolerating an empty
// body (v keeps its zero value). Unknown fields are rejected so typos in
// requests fail loudly instead of silently defaulting.
func decodeJSON(r *http.Request, v any) error {
	body := http.MaxBytesReader(nil, r.Body, 16<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	// Untyped values (the defines map) decode as json.Number, not float64,
	// so integer defines stay integers — `instance src[n]` needs n integral.
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return err
	}
	return nil
}

// --- program endpoints ---

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitProgramRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, CodeBadRequest, "undecodable submit request: %v", err)
		return
	}
	if req.Spec == "" {
		writeError(w, CodeBadRequest, "submit request carries no spec")
		return
	}
	if err := normalizeDefines(req.Defines); err != nil {
		writeError(w, CodeBadRequest, "%v", err)
		return
	}
	entry, hit, err := s.progs.lookupOrCompile(&req)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			writeError(w, apiErr.Code, "%s", apiErr.Message)
			return
		}
		writeError(w, CodeSpecInvalid, "%v", err)
		return
	}
	status := http.StatusCreated
	if hit {
		status = http.StatusOK
	}
	writeJSON(w, status, entry.info(hit))
}

func (s *Server) handleListPrograms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ProgramList{Programs: s.progs.list()})
}

func (s *Server) handleProgramInfo(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.progs.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no cached program %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, entry.info(false))
}

// --- session creation ---

// registerSession installs a stamped session under a fresh id, enforcing
// the session cap.
func (s *Server) registerSession(entry *programEntry, sim *core.Sim, seed int64, metrics bool) (*session, bool) {
	now := s.cfg.now()
	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return nil, false
	}
	s.nextSess++
	ss := &session{
		id:      "s" + strconv.FormatUint(s.nextSess, 10),
		entry:   entry,
		seed:    seed,
		metrics: metrics,
		created: now,
	}
	ss.sim = sim
	ss.lastUsed = now
	s.sessions[ss.id] = ss
	s.mu.Unlock()
	entry.sessions.Add(1)
	return ss, true
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.progs.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no cached program %q", r.PathValue("id"))
		return
	}
	var req CreateSessionRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, CodeBadRequest, "undecodable session request: %v", err)
		return
	}
	opts := []core.BuildOption{core.WithSeed(req.Seed)}
	if req.Metrics {
		opts = append(opts, core.WithMetrics())
	}
	sim, err := entry.prog.NewSim(opts...)
	if err != nil {
		writeError(w, CodeSpecInvalid, "stamping session: %v", err)
		return
	}
	ss, ok := s.registerSession(entry, sim, req.Seed, req.Metrics)
	if !ok {
		sim.Close()
		writeError(w, CodeUnavailable, "session capacity (%d) reached", s.cfg.MaxSessions)
		return
	}
	writeJSON(w, http.StatusCreated, ss.info())
}

func (s *Server) handleRestoreSession(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.progs.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no cached program %q", r.PathValue("id"))
		return
	}
	metrics := false
	if v := r.URL.Query().Get("metrics"); v != "" {
		metrics, _ = strconv.ParseBool(v)
	}
	opts := []core.BuildOption(nil)
	if metrics {
		opts = append(opts, core.WithMetrics())
	}
	body := http.MaxBytesReader(w, r.Body, 256<<20)
	sim, err := entry.prog.Restore(body, opts...)
	if err != nil {
		writeError(w, CodeSnapshotInvalid, "restoring session: %v", err)
		return
	}
	ss, ok := s.registerSession(entry, sim, sim.Seed(), metrics)
	if !ok {
		sim.Close()
		writeError(w, CodeUnavailable, "session capacity (%d) reached", s.cfg.MaxSessions)
		return
	}
	writeJSON(w, http.StatusCreated, ss.info())
}

// --- session endpoints ---

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	list := SessionList{Sessions: make([]SessionInfo, 0, len(sessions))}
	for _, ss := range sessions {
		list.Sessions = append(list.Sessions, ss.info())
	}
	sortSessions(list.Sessions)
	writeJSON(w, http.StatusOK, list)
}

// sortSessions orders by numeric id so listings are stable.
func sortSessions(infos []SessionInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && sessLess(infos[j].ID, infos[j-1].ID); j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

func sessLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, ss.info())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no session %q", r.PathValue("id"))
		return
	}
	if !ss.mu.TryLock() {
		writeError(w, CodeConflict, "session %s has a mutation in flight", ss.id)
		return
	}
	defer ss.mu.Unlock()
	s.drop(ss)
	w.WriteHeader(http.StatusNoContent)
}

// advance is the shared step/run implementation. defCycles is the cycle
// count an empty body means (1 for step, 0 = required for run).
func (s *Server) advance(w http.ResponseWriter, r *http.Request, defCycles uint64) {
	ss, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no session %q", r.PathValue("id"))
		return
	}
	var req StepRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, CodeBadRequest, "undecodable step request: %v", err)
		return
	}
	if req.Cycles == 0 {
		req.Cycles = defCycles
	}
	if req.Cycles == 0 {
		writeError(w, CodeBadRequest, "run request needs cycles >= 1")
		return
	}
	if !ss.mu.TryLock() {
		writeError(w, CodeConflict, "session %s already has a mutation in flight", ss.id)
		return
	}
	defer ss.mu.Unlock()
	defer ss.touch(s.cfg.now())
	// The worker bound throttles simulation work, not bookkeeping:
	// acquired after the cheap request parsing, released when the run is
	// done. A cancelled client gives its slot up without simulating.
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		return
	}
	defer func() { <-s.sem }()
	if err := ss.ensureLive(); err != nil {
		writeError(w, CodeUnavailable, "session %s: %v", ss.id, err)
		return
	}
	sim := ss.live()
	before := sim.Now()
	crash, err := runRecovered(r.Context(), sim, req.Cycles)
	if crash != nil {
		// A handler panicked with something other than a contract error:
		// the model is broken in a way the engine cannot vouch for, so the
		// session dies with an answer instead of a dropped connection.
		s.drop(ss)
		writeErrorDetails(w, CodeModelError, map[string]any{"cycle": sim.Now(), "ran": sim.Now() - before},
			"session %s closed: handler panic: %v", ss.id, crash)
		return
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, StepResponse{Cycle: sim.Now(), Ran: sim.Now() - before})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client gone; nothing useful to write.
	default:
		var ce *core.ContractError
		code := CodeModelError
		if !errors.As(err, &ce) {
			code = CodeUnavailable
		}
		writeErrorDetails(w, code, map[string]any{"cycle": sim.Now(), "ran": sim.Now() - before},
			"session %s: %v", ss.id, err)
	}
}

// runRecovered is sim.RunContext that hands a non-contract handler panic
// back as crash instead of unwinding through net/http, which would
// swallow it and leave the client with a closed connection.
func runRecovered(ctx context.Context, sim *core.Sim, cycles uint64) (crash any, err error) {
	defer func() { crash = recover() }()
	return nil, sim.RunContext(ctx, cycles)
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) { s.advance(w, r, 1) }
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request)  { s.advance(w, r, 0) }

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no session %q", r.PathValue("id"))
		return
	}
	ss.touch(s.cfg.now())
	sim := ss.live()
	if sim == nil {
		// Parked: restore on demand. TryLock cannot contend with a step —
		// an in-flight step means the session is live.
		if !ss.mu.TryLock() {
			writeError(w, CodeConflict, "session %s has a mutation in flight", ss.id)
			return
		}
		err := ss.ensureLive()
		ss.mu.Unlock()
		if err != nil {
			writeError(w, CodeUnavailable, "session %s: %v", ss.id, err)
			return
		}
		sim = ss.live()
	}
	writeStats(w, sim)
}

// writeStats answers the simulator's statistics document. It is encoded
// into memory first, so a document that cannot be encoded answers an
// error the client can read, not a committed 200 with an empty body.
// The read runs beside the session's stepping: obs.TakeSnapshot holds
// the step mutex (core.Sim.View), not the session's mu.
func writeStats(w http.ResponseWriter, sim *core.Sim) {
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, sim); err != nil {
		writeError(w, CodeModelError, "statistics cannot be encoded: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes()) // a failed write means the client went away
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no session %q", r.PathValue("id"))
		return
	}
	if !ss.mu.TryLock() {
		writeError(w, CodeConflict, "session %s has a mutation in flight", ss.id)
		return
	}
	defer ss.mu.Unlock()
	ss.touch(s.cfg.now())
	ss.ptr.Lock()
	sim, parked := ss.sim, ss.parkPath
	ss.ptr.Unlock()
	if sim == nil && parked != "" {
		// A parked session's checkpoint file is exactly the snapshot the
		// endpoint promises; serve it without waking the session.
		f, err := os.Open(parked)
		if err != nil {
			writeError(w, CodeUnavailable, "session %s: checkpoint unreadable: %v", ss.id, err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = io.Copy(w, f)
		return
	}
	if sim == nil {
		writeError(w, CodeUnavailable, "session %s has neither a live simulator nor a checkpoint", ss.id)
		return
	}
	// Snapshot into memory first: a model that cannot be checkpointed (an
	// instance with handlers that declared no Checkpoint state) must answer an
	// error the client can read, not a committed 200 with an empty body.
	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		writeError(w, CodeModelError, "session %s cannot be snapshotted: %v", ss.id, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(buf.Bytes()) // a failed write means the client went away
}

// handleLocalMetrics serves the JSON statistics document of the
// simulator published with SetLocal, and 503 (in the unified envelope)
// before the first one.
func (s *Server) handleLocalMetrics(w http.ResponseWriter, r *http.Request) {
	sim := s.local.Load()
	if sim == nil {
		writeError(w, CodeUnavailable, "no simulator attached")
		return
	}
	writeStats(w, sim)
}
