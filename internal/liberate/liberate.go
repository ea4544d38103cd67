// Package liberate implements the paper's "Liberation" path (§1): wrapping
// existing monolithic simulators into LSE modules "through encapsulation",
// so legacy code participates in structural models without a rewrite. The
// foreign simulator advances one cycle per engine cycle; the events it
// emits flow out of an ordinary port under the 3-signal contract, and
// downstream backpressure genuinely stalls the legacy simulator.
package liberate

import (
	core "liberty/internal/core"
)

// ForeignSim is the minimal contract a legacy simulator must expose to be
// encapsulated: advance one cycle (holding retirement when the
// encapsulating module is back-pressured) and report emitted events.
type ForeignSim interface {
	// StepCycle advances one simulated cycle. When stall is true the
	// foreign simulator must not produce new events this cycle (models
	// downstream backpressure). It returns the events produced.
	StepCycle(stall bool) (events []any, err error)
	// Done reports whether the foreign simulation has finished.
	Done() bool
}

// Module is the LSE encapsulation of a ForeignSim.
//
// Ports: "out" (Out, width 1) — the foreign simulator's event stream.
type Module struct {
	core.Base
	Out *core.Port

	foreign ForeignSim
	backlog []any
	maxLag  int
	err     error

	cEvents *core.Counter
	cStalls *core.Counter
}

// New encapsulates a foreign simulator. maxLag bounds the event backlog;
// once reached, the foreign simulator is stalled instead of dropping
// events (default 4).
func New(name string, foreign ForeignSim, maxLag int) *Module {
	if maxLag <= 0 {
		maxLag = 4
	}
	m := &Module{foreign: foreign, maxLag: maxLag}
	m.Init(name, m)
	m.cEvents = m.Counter("events")
	m.cStalls = m.Counter("stall_cycles")
	m.Out = m.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	m.OnCycleStart(m.cycleStart)
	m.OnCycleEnd(m.cycleEnd)
	return m
}

// Err returns the foreign simulator's terminal error, if any.
func (m *Module) Err() error { return m.err }

// Done reports whether the foreign simulation finished and its events
// drained.
func (m *Module) Done() bool { return m.foreign.Done() && len(m.backlog) == 0 }

func (m *Module) cycleStart() {
	if m.err == nil && !m.foreign.Done() {
		stall := len(m.backlog) >= m.maxLag
		if stall {
			m.cStalls.Inc()
		}
		events, err := m.foreign.StepCycle(stall)
		if err != nil {
			m.err = err
		}
		m.backlog = append(m.backlog, events...)
	}
	if len(m.backlog) > 0 {
		m.Out.Send(0, m.backlog[0])
		m.Out.Enable(0)
	} else {
		m.Out.SendNothing(0)
		m.Out.Disable(0)
	}
}

func (m *Module) cycleEnd() {
	if len(m.backlog) > 0 && m.Out.Transferred(0) {
		m.backlog = m.backlog[1:]
		m.cEvents.Inc()
	}
}
