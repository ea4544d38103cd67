package core

import (
	"fmt"
	"io"
)

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
// the VCD tracer's variable definitions).
func (m MultiTracer) Attach(s *Sim) {
	for _, t := range m {
		if at, ok := t.(interface{ Attach(*Sim) }); ok {
			at.Attach(s)
		}
	}
}

// TextTracer writes a human-readable signal trace. Filter, when non-nil,
// selects which connections to log.
type TextTracer struct {
	W      io.Writer
	Filter func(*Conn) bool
}

// OnCycleBegin implements Tracer.
func (t *TextTracer) OnCycleBegin(n uint64) {
	fmt.Fprintf(t.W, "=== cycle %d\n", n)
}

// OnResolve implements Tracer.
func (t *TextTracer) OnResolve(c *Conn, k SigKind, s Status) {
	if t.Filter != nil && !t.Filter(c) {
		return
	}
	if k == SigData && s == Yes {
		fmt.Fprintf(t.W, "  %s %s=%s (%v)\n", c, k, s, c.dataValue())
		return
	}
	fmt.Fprintf(t.W, "  %s %s=%s\n", c, k, s)
}

// OnCycleEnd implements Tracer.
func (t *TextTracer) OnCycleEnd(n uint64) {}
