package obs

import (
	"fmt"
	"io"
	"path"
	"sync"
	"sync/atomic"

	core "liberty/internal/core"
)

// Event is one structured trace record: a signal resolution observed by
// the engine, tagged with enough context to answer "what happened on this
// connection, this cycle" without re-running under a text tracer.
type Event struct {
	Cycle  uint64 `json:"cycle"`
	Conn   string `json:"conn"`   // "src.port[i]->dst.port[j]"
	Src    string `json:"src"`    // driving instance name
	Dst    string `json:"dst"`    // receiving instance name
	Signal string `json:"signal"` // data | enable | ack
	Status string `json:"status"` // yes | no
	Data   string `json:"data,omitempty"`
}

// EventTracer records signal resolutions into a fixed-capacity ring
// buffer, keeping the most recent events. It implements core.Tracer and
// may be read while the simulator steps. Filters (shell-style globs
// matched with path.Match) restrict capture to interesting instances or
// ports; an event is kept when either endpoint matches.
type EventTracer struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	cycle atomic.Uint64

	instGlob string
	portGlob string
}

// NewEventTracer returns a tracer keeping the last capacity events.
func NewEventTracer(capacity int) *EventTracer {
	if capacity < 1 {
		capacity = 1
	}
	return &EventTracer{buf: make([]Event, capacity)}
}

// FilterInstances restricts capture to events with an endpoint instance
// matching glob. It returns the tracer for chaining.
func (t *EventTracer) FilterInstances(glob string) *EventTracer {
	t.mu.Lock()
	t.instGlob = glob
	t.mu.Unlock()
	return t
}

// FilterPorts restricts capture to events with an endpoint port full name
// ("instance.port") matching glob. It returns the tracer for chaining.
func (t *EventTracer) FilterPorts(glob string) *EventTracer {
	t.mu.Lock()
	t.portGlob = glob
	t.mu.Unlock()
	return t
}

// OnCycleBegin implements core.Tracer.
func (t *EventTracer) OnCycleBegin(n uint64) { t.cycle.Store(n) }

// OnCycleEnd implements core.Tracer.
func (t *EventTracer) OnCycleEnd(n uint64) {}

func globMatch(glob string, names ...string) bool {
	for _, n := range names {
		if ok, _ := path.Match(glob, n); ok {
			return true
		}
	}
	return false
}

// OnResolve implements core.Tracer, recording one event.
func (t *EventTracer) OnResolve(c *core.Conn, k core.SigKind, s core.Status) {
	sp, _ := c.Src()
	dp, _ := c.Dst()
	ev := Event{
		Cycle:  t.cycle.Load(),
		Conn:   c.String(),
		Src:    sp.Owner().Name(),
		Dst:    dp.Owner().Name(),
		Signal: k.String(),
		Status: s.String(),
	}
	if k == core.SigData && s == core.Yes {
		if v, ok := c.Data(); ok {
			ev.Data = fmt.Sprint(v)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.instGlob != "" && !globMatch(t.instGlob, ev.Src, ev.Dst) {
		return
	}
	if t.portGlob != "" && !globMatch(t.portGlob, sp.FullName(), dp.FullName()) {
		return
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
}

// Events returns the captured events, oldest first.
func (t *EventTracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Len returns the number of events currently held.
func (t *EventTracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// WriteText dumps the captured events to w, oldest first.
func (t *EventTracer) WriteText(w io.Writer) error {
	for _, ev := range t.Events() {
		line := fmt.Sprintf("cycle %-6d %s %s=%s", ev.Cycle, ev.Conn, ev.Signal, ev.Status)
		if ev.Data != "" {
			line += " (" + ev.Data + ")"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// TextTracer writes a human-readable signal trace. Filter, when non-nil,
// selects which connections to log.
type TextTracer struct {
	W      io.Writer
	Filter func(*core.Conn) bool
}

// OnCycleBegin implements core.Tracer.
func (t *TextTracer) OnCycleBegin(n uint64) {
	fmt.Fprintf(t.W, "=== cycle %d\n", n)
}

// OnResolve implements core.Tracer.
func (t *TextTracer) OnResolve(c *core.Conn, k core.SigKind, s core.Status) {
	if t.Filter != nil && !t.Filter(c) {
		return
	}
	if k == core.SigData && s == core.Yes {
		v, _ := c.Data()
		fmt.Fprintf(t.W, "  %s %s=%s (%v)\n", c, k, s, v)
		return
	}
	fmt.Fprintf(t.W, "  %s %s=%s\n", c, k, s)
}

// OnCycleEnd implements core.Tracer.
func (t *TextTracer) OnCycleEnd(n uint64) {}
