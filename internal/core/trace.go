package core

// Tracer observes engine activity, the hook behind interactive system
// visualization. Tracer methods are called from the goroutine stepping
// the simulator, never concurrently.
type Tracer interface {
	// OnCycleBegin is called as cycle n starts.
	OnCycleBegin(n uint64)
	// OnResolve is called when a signal resolves.
	OnResolve(c *Conn, k SigKind, s Status)
	// OnCycleEnd is called after resolution, before state commit. All
	// completed transfers are observable via Conn at this point.
	OnCycleEnd(n uint64)
}

// MultiTracer fans every tracer callback out to each element in order.
// The Builder composes one automatically when several tracers are
// attached via WithTracer.
type MultiTracer []Tracer

// OnCycleBegin implements Tracer.
func (m MultiTracer) OnCycleBegin(n uint64) {
	for _, t := range m {
		t.OnCycleBegin(n)
	}
}

// OnResolve implements Tracer.
func (m MultiTracer) OnResolve(c *Conn, k SigKind, s Status) {
	for _, t := range m {
		t.OnResolve(c, k, s)
	}
}

// OnCycleEnd implements Tracer.
func (m MultiTracer) OnCycleEnd(n uint64) {
	for _, t := range m {
		t.OnCycleEnd(n)
	}
}

// Attach forwards the post-build netlist to elements that want it (e.g.
// obs.VCDTracer's variable definitions).
func (m MultiTracer) Attach(s *Sim) {
	for _, t := range m {
		if at, ok := t.(interface{ Attach(*Sim) }); ok {
			at.Attach(s)
		}
	}
}
