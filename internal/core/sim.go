package core

import (
	"context"
	"fmt"
	"sync"
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
// remaining signals, and state commits. Two loops implement that cycle:
// the reference (reference.go) and the engine (stepEngine below, over
// schedule.go and sparse.go); they share the signal plane, the wake/drain
// queue, applyDefault and verifyResolved.
//
// A Sim has one writer (DESIGN.md Appendix C.1, H): it is stepped, read
// and snapshotted by one goroutine at a time, so its signal plane, work
// queue and scheduled flags are plain memory. Host parallelism runs
// across Sims — many sessions of one Program — never inside one. The one
// reader that may run beside a stepping goroutine goes through View.
type Sim struct {
	seed      int64
	sched     SchedulerKind // the engine (SchedulerSparse) or the reference
	tracer    Tracer
	prog      *Program // the compiled structure this session executes
	instances []Instance
	bases     []*Base // instances[i].base(), resolved once at bind
	byName    map[string]Instance
	conns     []*Conn
	plane     sigPlane // dense signal state, indexed by conn id
	stats     StatSet
	metrics   *Metrics      // nil unless built with WithMetrics
	schedule  *progSchedule // shared static schedule: set under the engine, nil under the reference
	sparse    *progSparse   // shared cluster plan: set under the engine, nil under the reference
	act       *actState     // engine: idle signatures and per-cycle decisions; nil until the first steady cycle
	actCheck  bool          // WithActivityCheck: evaluate and compare instead of closing

	// needFull requests a full sweep from the engine's next cycle (cycle
	// 0, after InvalidateActivity, a Step error or a Restore): steady
	// cycles replay settled resolutions, and those must first exist.
	// Session state — the compiled cluster plan is shared and never
	// written. The reference sweeps everything every cycle and ignores it.
	needFull bool

	phase phase
	// writable mirrors phase ∈ {phaseStart, phaseReact} as one flag so
	// mustWritePhase — the guard on every signal write — is a single
	// load-and-branch that inlines. Maintained by setPhase only.
	writable bool
	cycle    uint64

	// released is set at commit and cleared at the top of the next Step:
	// between cycles, data-value reads (Conn.Data, TransferredData) report
	// "not driven" even though the statuses still read Yes. This makes the
	// post-commit read path explicit — a tracer can never observe a
	// released value.
	released bool

	// spillHits counts data-Yes stores into the data lane.
	spillHits uint64

	// mu is held by Step for the whole cycle and by View: the one lock,
	// for a reader on another goroutine (a live /metrics or stats
	// request) that observes the session while it steps.
	mu sync.Mutex

	// resolved counts this cycle's resolutions per signal kind (closed
	// clusters are credited in bulk): resolved[k] == len(conns) proves
	// kind k is fully resolved and the default sweep for it can be
	// skipped. Reset each Step.
	resolved [3]int

	queue []*Base // work queue (FIFO by wake order)
	qhead int
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
func (s *Sim) Stats() *StatSet { return &s.stats }

// Metrics returns the simulator's scheduler metrics, or nil when the
// simulator was built without WithMetrics.
func (s *Sim) Metrics() *Metrics { return s.metrics }

// Instances returns the netlist's instances in assembly order.
func (s *Sim) Instances() []Instance { return s.instances }

// Instance returns the named instance, or nil.
func (s *Sim) Instance(name string) Instance { return s.byName[name] }

// Conns returns the netlist's connections.
func (s *Sim) Conns() []*Conn { return s.conns }

// SpillHits returns the cumulative number of data-Yes resolutions — each
// one a boxed store into the data lane (an allocation unless the payload
// is a pointer or otherwise boxes for free). Divide by the cycle count for
// a per-cycle boxing rate.
func (s *Sim) SpillHits() uint64 { return s.spillHits }

// View calls fn holding the step mutex, which Step holds for each cycle:
// fn sees the session at a cycle boundary, so it may read statistics,
// metrics and the cycle count while another goroutine steps the session.
// It is the one cross-goroutine read path (obs.WriteJSON and
// obs.TakeSnapshot take it). fn must not step the session, and View must
// not be called from a handler or a tracer callback: it would wait for
// the Step that called it.
func (s *Sim) View(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

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
		m.wakes++
	}
	s.queue = append(s.queue, b)
}

// drain runs the reactive fixed point: queued handlers run in wake
// order, and the instances their resolutions wake join the tail, until
// the queue is empty.
func (s *Sim) drain() {
	for s.qhead < len(s.queue) {
		b := s.queue[s.qhead]
		s.qhead++
		b.scheduled = false
		s.runReact(b)
	}
	s.queue = s.queue[:0]
	s.qhead = 0
}

// runReact invokes one reactive handler, recording invocation counts and
// sampled wall time when metrics are enabled.
func (s *Sim) runReact(b *Base) {
	m := s.metrics
	if m == nil {
		b.react()
		return
	}
	m.reacts++
	im := &m.insts[b.id]
	if im.reacts++; im.reacts&reactSampleMask != 1 {
		b.react()
		return
	}
	t0 := time.Now()
	b.react()
	im.nanos += time.Since(t0).Nanoseconds()
	im.sampled++
}

// applyDefault resolves one still-Unknown signal by default control — the
// single statement of the default semantics (PAPER.md §1 item 4), shared
// by the reference's rounds and the engine's sweep: data defaults to No;
// enable to the driver's control function, else its DefaultEnable, else
// the data status; ack to the receiver's control function, else its
// DefaultAck, else Yes exactly when data and enable are both Yes.
func (s *Sim) applyDefault(c *Conn, k SigKind) {
	if m := s.metrics; m != nil {
		m.defaults[k]++
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

// verifyResolved raises a contract error naming the first signal still
// Unknown after default resolution. The resolution counters prove the
// common fully-resolved case without a scan.
func (s *Sim) verifyResolved() {
	if s.resolved[SigData]+s.resolved[SigEnable]+s.resolved[SigAck] == 3*len(s.conns) {
		return
	}
	for _, c := range s.conns {
		for _, k := range [...]SigKind{SigData, SigEnable, SigAck} {
			if c.status(k) == Unknown {
				contractPanic("resolve", c.String(),
					fmt.Sprintf("%s signal unresolved after default rounds", k))
			}
		}
	}
}

// Step advances the simulation by one cycle, holding the step mutex (see
// View) throughout. Contract violations raised by module handlers are
// returned as *ContractError; any other handler panic propagates to the
// caller, after the same abort cleanup, so a caller that recovers it
// holds a session it can still step or snapshot.
func (s *Sim) Step() (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
			// The cycle aborted mid-resolution; the plane holds a partial
			// state no replay may build on.
			s.needFull = true
			ce, ok := r.(*ContractError)
			if !ok {
				panic(r)
			}
			err = ce
		}
	}()
	if s.sched == SchedulerSequential {
		s.stepReference()
	} else {
		s.stepEngine()
	}
	return nil
}

// stepEngine is the engine's cycle. Its one mode: a full sweep (cycle 0,
// after InvalidateActivity, an error or a Restore; and whenever a tracer
// is attached, which keeps every cluster open so it sees every
// resolution) or a steady cycle over the clusters that open.
func (s *Sim) stepEngine() {
	full := s.needFull || s.tracer != nil
	s.needFull = false
	if s.tracer != nil {
		s.tracer.OnCycleBegin(s.cycle)
	}
	// Data-value reads are live again from here until commit.
	s.released = false
	s.resolved = [3]int{}
	if full {
		// Bulk reset: one memclr (Unknown is the zero status). The data
		// lane was already released at the previous commit.
		s.plane.clearStatus()
		s.dropSignatures()
		if m := s.metrics; m != nil {
			m.activeInsts += uint64(len(s.instances))
		}
	} else {
		s.resetOpen()
	}
	s.setPhase(phaseStart)
	for _, b := range s.bases {
		if b.start != nil {
			b.start()
		}
	}
	s.setPhase(phaseReact)
	if full {
		for _, b := range s.bases {
			s.wake(b)
		}
	} else {
		s.wakeOpen()
	}
	s.drain()
	s.applyDefaults()
	s.verifyResolved()
	if !full {
		s.settleClusters()
	}
	s.setPhase(phaseEnd)
	if s.tracer != nil {
		s.tracer.OnCycleEnd(s.cycle)
	}
	for _, b := range s.bases {
		if b.end != nil {
			b.end()
		}
	}
	s.setPhase(phaseIdle)
	// Commit: release transferred data values now instead of pinning them
	// until the next cycle's reset (a closed cluster carries no value by
	// construction). The released flag makes the data lane read as "not
	// driven" until the next Step.
	s.released = true
	clear(s.plane.data)
	s.cycle++
	if m := s.metrics; m != nil {
		m.cycles++
	}
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
