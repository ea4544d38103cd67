package core

import "time"

// reactSampleMask selects which react invocations are wall-clock timed:
// per instance, invocation counts n with n&mask == 1 (the 1st, 9th, 17th,
// ...). Sampling keeps metrics cheap enough to leave on; the estimate
// scales the sampled time by the sampling ratio.
const reactSampleMask = 7

// Metrics aggregates scheduler-level observability counters: where each
// cycle's work went — reactive wakes, fixed-point iterations,
// default-control fallbacks — and per-instance react activity.
// Collection is enabled with WithMetrics; when disabled the scheduler
// pays a single nil check per event. The counters are plain memory
// written by the stepping goroutine; a live reader on another goroutine
// (lsc -metrics-addr, lsd /metrics) reads them through Sim.View, which
// holds the step mutex, so it sees them at a cycle boundary.
type Metrics struct {
	cycles uint64
	wakes  uint64
	reacts uint64
	iters  uint64

	defaults [3]uint64 // indexed by SigKind
	breaks   [3]uint64 // dependency-cycle breaks, by SigKind

	activeInsts    uint64 // sparse: seeds and reactive members of open clusters, summed per cycle
	skippedWakes   uint64 // sparse: reactive instances left unwoken, summed per cycle
	closedClusters uint64 // sparse: clusters closed by their signature, summed per cycle
	closedConns    uint64 // sparse: conns held instead of re-resolved, summed per cycle

	starts   uint64 // cycle-start handler calls
	ends     uint64 // cycle-end handler calls
	sleeping uint64 // sparse: instances asleep (end handler skipped), summed per cycle

	insts []InstanceMetrics // indexed by instance id
	sim   *Sim
}

func newMetrics(s *Sim) *Metrics {
	m := &Metrics{insts: make([]InstanceMetrics, len(s.instances)), sim: s}
	for i, inst := range s.instances {
		m.insts[i].name = inst.Name()
	}
	return m
}

// Cycles returns the number of cycles stepped since construction.
func (m *Metrics) Cycles() uint64 { return m.cycles }

// Wakes returns the number of reactive wake-ups scheduled: how many times
// a signal resolution (or the cycle-start broadcast) moved an instance
// from idle to a work queue. Re-raising at an already-scheduled instance
// does not count. A wake is counted when it leaves the queue — run, or
// dropped because its clusters closed or the cycle aborted — so the count
// is exact at every cycle boundary, where the queues are empty.
func (m *Metrics) Wakes() uint64 { return m.wakes }

// Reacts returns the total number of reactive-handler invocations.
func (m *Metrics) Reacts() uint64 { return m.reacts }

// FixedPointIters returns the number of fixed-point iterations the
// scheduler could not resolve statically. Under the reference: drain
// passes that executed at least one handler — default-control
// resolution re-runs the fixed point after every applied default, so
// this counts how many times quiescence was re-established. Under the
// engine: the same count taken only in the reference's default round,
// which the engine runs after its static sweep — drain passes that ran a
// handler after a default applied inside or downstream of a dependency
// cycle; exactly zero when the dependency graph is acyclic.
func (m *Metrics) FixedPointIters() uint64 { return m.iters }

// DefaultFallbacks returns the number of signals of kind k resolved by
// default control rather than by module code.
func (m *Metrics) DefaultFallbacks(k SigKind) uint64 { return m.defaults[k] }

// CycleBreaks returns the number of genuine default-dependency cycles
// broken for signal kind k. Every break is also counted as a fallback.
func (m *Metrics) CycleBreaks(k SigKind) uint64 { return m.breaks[k] }

// ActiveInstances returns, summed over all cycles, the number of
// instances the sparse scheduler treated as active: the seeds plus the
// reactive members of that cycle's open clusters (every instance, on
// full-sweep cycles). Zero under the reference; divide by Cycles for
// the mean active-set size.
func (m *Metrics) ActiveInstances() uint64 { return m.activeInsts }

// SkippedWakes returns, summed over all cycles, the number of reactive
// instances the sparse scheduler did not wake because every cluster they
// belong to was closed. Zero under the reference and on full-sweep
// cycles.
func (m *Metrics) SkippedWakes() uint64 { return m.skippedWakes }

// ClosedClusterCycles returns, summed over all cycles, the number of
// combinational clusters the sparse scheduler closed on their idle
// signature instead of re-resolving. ClosedConnCycles is the same sum in
// connections, and includes the connections no cycle-start handler can
// reach; divided by Cycles times the connection count it is the share of
// the netlist that was replayed.
func (m *Metrics) ClosedClusterCycles() uint64 { return m.closedClusters }

// ClosedConnCycles: see ClosedClusterCycles.
func (m *Metrics) ClosedConnCycles() uint64 { return m.closedConns }

// StartCalls returns the number of cycle-start handler calls. A sleeping
// instance's are skipped (Base.Sleep) except in check mode, which runs
// them to compare.
func (m *Metrics) StartCalls() uint64 { return m.starts }

// EndCalls returns the number of cycle-end handler calls.
func (m *Metrics) EndCalls() uint64 { return m.ends }

// SleepingCycles returns, summed over all cycles, the number of instances
// asleep — whose cycle-end handler the engine skipped. Zero under the
// reference, which never sleeps.
func (m *Metrics) SleepingCycles() uint64 { return m.sleeping }

// InstanceMetrics accumulates one instance's react activity.
type InstanceMetrics struct {
	name    string
	reacts  uint64
	sampled uint64
	nanos   int64
	// Handler calls the engine skipped while the instance slept
	// (Base.Sleep); check mode runs the start handlers.
	skippedStarts, skippedEnds uint64
}

// InstanceMetric is a point-in-time view of one instance's react
// activity and handler calls. ReactTime is estimated from sampled
// invocations. Starts and Ends count its cycle-start and cycle-end
// handler calls, Asleep the cycles it slept through (Base.Sleep), its
// end handler skipped.
type InstanceMetric struct {
	Name                 string
	Reacts               uint64
	ReactTime            time.Duration
	Starts, Ends, Asleep uint64
}

func (im *InstanceMetrics) snapshot() InstanceMetric {
	r, s, n := im.reacts, im.sampled, im.nanos
	var est time.Duration
	if s > 0 {
		est = time.Duration(float64(n) * float64(r) / float64(s))
	}
	return InstanceMetric{Name: im.name, Reacts: r, ReactTime: est}
}

// Instances returns a snapshot of per-instance react metrics in netlist
// assembly order.
func (m *Metrics) Instances() []InstanceMetric {
	out := make([]InstanceMetric, len(m.insts))
	for i := range m.insts {
		out[i] = m.insts[i].snapshot()
		b := m.sim.bases[i]
		if b.start != nil {
			out[i].Starts = m.cycles - m.insts[i].skippedStarts
		}
		if b.end != nil {
			out[i].Asleep = m.insts[i].skippedEnds
			out[i].Ends = m.cycles - out[i].Asleep
		}
	}
	return out
}
