package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

type phase uint8

const (
	phaseIdle phase = iota
	phaseStart
	phaseReact
	phaseEnd
)

// Sim is an executable simulator constructed from a netlist. Simulated
// time advances one cycle per Step; within a cycle, module reactive
// handlers run to a monotonic fixed point, default control resolves the
// remaining signals, and state commits.
//
// A Sim has one writer (DESIGN.md Appendix C.1, H): it is stepped, read
// and snapshotted by one goroutine at a time, so its signal plane, work
// queue and scheduled flags are plain memory. Host parallelism runs
// across Sims — many sessions of one Program — never inside one.
type Sim struct {
	seed      int64
	sched     SchedulerKind // resolved: Sequential, Levelized, Sparse or Woven
	tracer    Tracer
	prog      *Program // the compiled structure this session executes
	instances []Instance
	bases     []*Base // instances[i].base(), resolved once at bind
	byName    map[string]Instance
	conns     []*Conn
	plane     sigPlane // dense signal state, indexed by conn id
	stats     *StatSet
	metrics   *Metrics      // nil unless built with WithMetrics
	schedule  *progSchedule // shared: nil unless a statically scheduled engine is selected
	sparse    *progSparse   // shared cluster plan: nil unless the sparse scheduler is selected
	act       *actState     // sparse: idle signatures and per-cycle decisions; nil until the first steady cycle
	actCheck  bool          // WithActivityCheck: evaluate and compare instead of closing
	weave     *progWeave    // shared: nil unless the woven scheduler is selected
	pruned    []bool        // shared: instance id -> handlers never run (WithDataflowPrune); nil otherwise

	// needFull requests a full sweep from the next Step (cycle 0, after
	// InvalidateActivity, a Step error or a Restore) under the engines
	// that replay settled resolutions on steady cycles (sparse and
	// woven). Session state — the compiled cluster plan and woven plan
	// themselves are shared and never written.
	needFull bool

	// Levelized residue-worklist scratch, per session (the id lists it
	// walks are the program's). schedRemaining is allocated lazily on the
	// first residue run, so acyclic netlists never pay for it.
	schedRemaining []int32 // conn id -> unresolved dep count; -1 = not pending
	schedReady     []int32

	phase phase
	// writable mirrors phase ∈ {phaseStart, phaseReact} as one flag so
	// mustWritePhase — the guard on every signal write — is a single
	// load-and-branch that inlines. Maintained by setPhase only.
	writable bool
	cycle    uint64

	// released is set at commit and cleared at the top of the next Step:
	// between cycles, data-value reads (Conn.Data, TransferredData and
	// their typed counterparts) report "not driven" on both lanes even
	// though the statuses still read Yes. This makes the post-commit read
	// path explicit — a tracer can never observe a released spill value
	// or a stale scalar.
	released bool

	// spillHits counts data-Yes stores that landed on the boxed spill
	// lane. Always on: only the spill path — which boxes anyway — pays
	// the atomic add, so the scalar fast lane costs nothing. Atomic
	// because a live metrics reader (SpillHits from a /metrics goroutine)
	// loads it while the session steps.
	spillHits atomic.Uint64

	// resolved counts this cycle's resolutions per signal kind (closed
	// clusters and the woven replayed region are credited in bulk):
	// resolved[k] == len(conns) proves kind k is fully resolved and the
	// default sweep for it can be skipped. Reset each Step.
	resolved [3]int

	queue []*Base // work queue (FIFO by wake order)
	qhead int

	// Residue-worklist plumbing (levelized scheduler): while a residue
	// run is active, raise() reports each kind-matching resolution here.
	residueOn   bool
	residueKind SigKind
	resolvedBuf []*Conn
}

// Close ends the session. It is the session-end hook every owner calls
// (sweeps, the lsd service, the post-build failure path); a Sim holds no
// goroutines or pooled resources, so it releases nothing and is
// trivially idempotent. The simulator must not be stepped after Close.
func (s *Sim) Close() {}

// Program returns the compiled program this session executes. Every Sim
// has one; only programs built with Compile (or lse.CompileLSS) carry an
// assembly recipe and can stamp further sessions.
func (s *Sim) Program() *Program { return s.prog }

// Seed returns the simulator's random seed.
func (s *Sim) Seed() int64 { return s.seed }

// Now returns the current cycle number (the number of completed cycles).
func (s *Sim) Now() uint64 { return s.cycle }

// Stats returns the simulator's statistics set.
func (s *Sim) Stats() *StatSet { return s.stats }

// Metrics returns the simulator's scheduler metrics, or nil when the
// simulator was built without WithMetrics.
func (s *Sim) Metrics() *Metrics { return s.metrics }

// Instances returns the netlist's instances in assembly order.
func (s *Sim) Instances() []Instance { return s.instances }

// Instance returns the named instance, or nil.
func (s *Sim) Instance(name string) Instance { return s.byName[name] }

// Conns returns the netlist's connections.
func (s *Sim) Conns() []*Conn { return s.conns }

// SpillHits returns the cumulative number of data-Yes resolutions stored
// on the boxed spill lane — each one an interface store (and usually an
// allocation) the scalar fast lane would have avoided. Divide by the
// cycle count for a per-cycle boxing rate.
func (s *Sim) SpillHits() uint64 { return s.spillHits.Load() }

func (s *Sim) onResolve(c *Conn, k SigKind, st Status) {
	if s.tracer != nil {
		s.tracer.OnResolve(c, k, st)
	}
}

// setPhase moves the simulator to phase p, keeping the writable mirror
// flag (read by mustWritePhase on every signal write) in sync.
func (s *Sim) setPhase(p phase) {
	s.phase = p
	s.writable = p == phaseStart || p == phaseReact
}

// wake schedules an instance's reactive handler. b is never nil: every
// caller passes a built instance's Base (connection endpoints and the
// instance list are fixed at Build). The already-scheduled early-out
// inlines into resolve's path — the common case on busy netlists, where
// every resolution wakes an endpoint — as one load instead of a call.
func (s *Sim) wake(b *Base) {
	if b.react == nil || b.scheduled {
		return
	}
	s.wakeSlow(b)
}

func (s *Sim) wakeSlow(b *Base) {
	b.scheduled = true
	if m := s.metrics; m != nil {
		m.wakes.Add(1)
	}
	s.queue = append(s.queue, b)
}

// drain runs the reactive fixed point: queued handlers run in wake
// order, and the instances their resolutions wake join the tail, until
// the queue is empty.
func (s *Sim) drain() {
	ran := s.qhead < len(s.queue)
	for s.qhead < len(s.queue) {
		b := s.queue[s.qhead]
		s.qhead++
		b.scheduled = false
		s.runReact(b)
	}
	s.queue = s.queue[:0]
	s.qhead = 0
	// Under the statically scheduled engines, fixed-point iterations are
	// counted by the residue worklist instead (zero on acyclic netlists).
	if m := s.metrics; m != nil && ran && s.schedule == nil {
		m.iters.Add(1)
	}
}

// runReact invokes one reactive handler, recording invocation counts and
// sampled wall time when metrics are enabled.
func (s *Sim) runReact(b *Base) {
	m := s.metrics
	if m == nil {
		b.react()
		return
	}
	m.reacts.Add(1)
	im := &m.insts[b.id]
	if n := im.reacts.Add(1); n&reactSampleMask != 1 {
		b.react()
		return
	}
	t0 := time.Now()
	b.react()
	im.nanos.Add(time.Since(t0).Nanoseconds())
	im.sampled.Add(1)
}

// applyDefaults resolves still-Unknown signals using default control
// semantics, in three deterministic rounds (data, then enable, then ack),
// re-running the reactive fixed point after every applied default so
// modules can react to defaulted values before their own signals are
// defaulted.
//
// Within a round, defaults are applied dependency-aware: a connection's
// signal is only defaulted once the module that should have driven it has
// every same-kind input it could be mirroring already resolved — data and
// enable propagate forward, so their driver's dependencies are the
// driver's input connections; acks propagate backward, so an ack's
// dependencies are the receiving module's own downstream acks. This makes
// arbitrarily deep combinational mirror chains (queue → route → arbiter →
// sink) resolve from the leaves inward instead of being pessimistically
// killed at the head. A genuine dependency cycle is broken at the
// lowest-id unresolved connection.
func (s *Sim) applyDefaults(full bool) {
	if !full && s.weave != nil {
		s.applyDefaultsWoven()
		return
	}
	if s.schedule != nil {
		s.applyDefaultsLevelized()
		return
	}
	s.defaultRound(SigData)
	s.defaultRound(SigEnable)
	s.defaultRound(SigAck)
}

func (s *Sim) defaultRound(k SigKind) {
	for {
		if s.resolved[k] == len(s.conns) {
			return // fully resolved by reactions; nothing to default
		}
		progress := false
		unresolved := false
		for _, c := range s.conns {
			if c.status(k) != Unknown {
				continue
			}
			if !s.defaultDepsResolved(c, k) {
				unresolved = true
				continue
			}
			s.applyDefault(c, k)
			progress = true
			s.drain()
		}
		if !unresolved {
			return
		}
		if !progress {
			for _, c := range s.conns {
				if c.status(k) == Unknown {
					if m := s.metrics; m != nil {
						m.breaks[k].Add(1)
					}
					s.applyDefault(c, k)
					s.drain()
					break
				}
			}
		}
	}
}

// defaultDepsResolved reports whether the module responsible for driving
// connection c's signal k has all of its same-kind upstream inputs
// resolved, i.e. whether defaulting now cannot pre-empt a mirror the
// module would still perform.
func (s *Sim) defaultDepsResolved(c *Conn, k SigKind) bool {
	if k == SigAck {
		owner := c.dst.owner
		for _, p := range owner.portList {
			if p.owner != owner || p.dir != Out {
				continue
			}
			for _, oc := range p.conns {
				if oc.status(SigAck) == Unknown {
					return false
				}
			}
		}
		return true
	}
	owner := c.src.owner
	for _, p := range owner.portList {
		if p.owner != owner || p.dir != In {
			continue
		}
		for _, ic := range p.conns {
			if ic.status(k) == Unknown {
				return false
			}
		}
	}
	return true
}

func (s *Sim) applyDefault(c *Conn, k SigKind) {
	if m := s.metrics; m != nil {
		m.defaults[k].Add(1)
	}
	switch k {
	case SigData:
		c.raise(SigData, No, nil)
	case SigEnable:
		st := Unknown
		if fn := c.src.opts.Control; fn != nil {
			st = fn(c.status(SigData), Unknown, c.dataValue())
		}
		if st == Unknown {
			st = c.src.opts.DefaultEnable
		}
		if st == Unknown {
			st = c.status(SigData)
			if st == Unknown { // cannot happen after the data round
				st = No
			}
		}
		c.raise(SigEnable, st, nil)
	case SigAck:
		st := Unknown
		if fn := c.dst.opts.Control; fn != nil {
			st = fn(c.status(SigData), c.status(SigEnable), c.dataValue())
		}
		if st == Unknown {
			st = c.dst.opts.DefaultAck
		}
		if st == Unknown {
			if c.status(SigData) == Yes && c.status(SigEnable) == Yes {
				st = Yes
			} else {
				st = No
			}
		}
		c.raise(SigAck, st, nil)
	}
}

func (s *Sim) verifyResolved() {
	for _, c := range s.conns {
		for _, k := range [...]SigKind{SigData, SigEnable, SigAck} {
			if c.status(k) == Unknown {
				contractPanic("resolve", c.String(),
					fmt.Sprintf("%s signal unresolved after default rounds", k))
			}
		}
	}
}

// Step advances the simulation by one cycle. Contract violations raised by
// module handlers are returned as *ContractError; any other handler panic
// propagates to the caller, after the same abort cleanup, so a caller
// that recovers it holds a session it can still step or snapshot.
func (s *Sim) Step() (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.setPhase(phaseIdle)
			// The cycle aborted mid-drain: clear the scheduled flags of
			// anything still queued, or those instances would be skipped
			// by every future wake.
			for _, b := range s.queue[s.qhead:] {
				b.scheduled = false
			}
			s.queue = s.queue[:0]
			s.qhead = 0
			if s.sparse != nil || s.weave != nil {
				// The cycle aborted mid-resolution; the plane holds a
				// partial state no replay may build on.
				s.needFull = true
			}
			ce, ok := r.(*ContractError)
			if !ok {
				panic(r)
			}
			err = ce
		}
	}()
	// Three cycles: the full sweep (the engines that replay nothing; cycle
	// 0, after InvalidateActivity, an error or a Restore under the ones
	// that do), the clustered sparse cycle, and the woven cycle. A tracer
	// keeps every cluster open — so it sees every resolution — which is
	// the full sweep again.
	sp, wv := s.sparse, s.weave
	full := (sp == nil && wv == nil) || s.needFull || (sp != nil && s.tracer != nil)
	s.needFull = false
	if s.tracer != nil {
		s.tracer.OnCycleBegin(s.cycle)
	}
	// Data-value reads are live again from here until commit.
	s.released = false
	s.resolved = [3]int{}
	switch {
	case full:
		// Bulk reset: one memclr (Unknown is the zero status). The data
		// lane was already released at the previous commit — except the
		// woven replayed region's settled values, which go with their
		// statuses.
		s.plane.clearStatus()
		if wv != nil {
			clear(s.plane.data)
		}
		if sp != nil {
			s.dropSignatures()
			if m := s.metrics; m != nil {
				m.activeInsts.Add(uint64(len(s.instances)))
			}
		}
	case sp != nil:
		s.resetOpen()
	default:
		s.clearWovenDirty()
	}
	s.setPhase(phaseStart)
	if wv != nil {
		for _, id := range wv.startList {
			s.bases[id].start()
		}
	} else {
		for i, b := range s.bases {
			if b.start != nil && (s.pruned == nil || !s.pruned[i]) {
				b.start()
			}
		}
	}
	s.setPhase(phaseReact)
	switch {
	case wv != nil:
		// Full and steady woven cycles wake the same set: every reactive,
		// unpruned instance (the compiled roster just skips the
		// O(instances) nil-handler scan).
		for _, id := range wv.reactWake {
			s.wake(s.bases[id])
		}
	case full:
		for i, b := range s.bases {
			if s.pruned != nil && s.pruned[i] {
				continue
			}
			s.wake(b)
		}
	default:
		s.wakeOpen()
	}
	s.drain()
	s.applyDefaults(full)
	// The resolution counters — closed clusters and the woven replayed
	// region credited in bulk — prove full resolution without a scan.
	if s.resolved[SigData]+s.resolved[SigEnable]+s.resolved[SigAck] != 3*len(s.conns) {
		s.verifyResolved()
	}
	if sp != nil && !full {
		s.settleClusters()
	}
	s.setPhase(phaseEnd)
	if s.tracer != nil {
		s.tracer.OnCycleEnd(s.cycle)
	}
	if wv != nil {
		for _, id := range wv.endList {
			s.bases[id].end()
		}
	} else {
		for i, b := range s.bases {
			if b.end != nil && (s.pruned == nil || !s.pruned[i]) {
				b.end()
			}
		}
	}
	s.setPhase(phaseIdle)
	// Commit: release transferred data values now instead of pinning them
	// until the next cycle's reset. A closed cluster carries no value by
	// construction; only the woven compiled region keeps its values — they
	// are the replayed resolution. The released flag makes both lanes read
	// as "not driven" until the next Step, so the kept values (and stale
	// scalars, which are never cleared) stay unobservable between cycles.
	s.released = true
	switch {
	case wv == nil:
		clear(s.plane.data)
	case full:
		// A full woven cycle releases nothing: the whole plane is the next
		// cycle's replay baseline, hidden by the released flag.
	default:
		for _, id := range wv.spill {
			s.plane.data[id] = nil
		}
	}
	s.cycle++
	if m := s.metrics; m != nil {
		m.cycles.Add(1)
	}
	return nil
}

// Run advances the simulation n cycles, stopping at the first error.
func (s *Sim) Run(n uint64) error { return s.RunContext(context.Background(), n) }

// RunContext advances the simulation n cycles, stopping at the first
// error or when ctx is cancelled (returning ctx.Err()). Cancellation is
// checked between cycles, so a cancelled run always stops on a cycle
// boundary with the simulator in a consistent state.
func (s *Sim) RunContext(ctx context.Context, n uint64) error {
	done := ctx.Done()
	for i := uint64(0); i < n; i++ {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if err := s.Step(); err != nil {
			return fmt.Errorf("cycle %d: %w", s.cycle, err)
		}
	}
	return nil
}

// RunUntil advances the simulation until pred returns true or max cycles
// elapse. It reports whether pred was satisfied.
func (s *Sim) RunUntil(pred func(*Sim) bool, max uint64) (bool, error) {
	return s.RunUntilContext(context.Background(), pred, max)
}

// RunUntilContext is RunUntil with cancellation: it additionally stops,
// returning ctx.Err(), when ctx is cancelled between cycles.
func (s *Sim) RunUntilContext(ctx context.Context, pred func(*Sim) bool, max uint64) (bool, error) {
	done := ctx.Done()
	for i := uint64(0); i < max; i++ {
		if pred(s) {
			return true, nil
		}
		if done != nil {
			select {
			case <-done:
				return false, ctx.Err()
			default:
			}
		}
		if err := s.Step(); err != nil {
			return false, fmt.Errorf("cycle %d: %w", s.cycle, err)
		}
	}
	return pred(s), nil
}
