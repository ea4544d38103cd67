package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Spans of one job share Job; Parent is
// the span that made the call (-1 for the job's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Job    int32  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the count taken at the same boundary: cycles stepped, bytes
	// written, allocations made.
	N int64 `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// jobTrace records the spans of one job. A job runs on one goroutine, so
// the open-span stack needs no lock; a nil *jobTrace records nothing and
// only times the call, which is how untraced jobs run the same code.
type jobTrace struct {
	t     *tracer
	job   int32
	stack []int32
}

func (t *tracer) job(i int) *jobTrace { return &jobTrace{t: t, job: int32(i)} }

// open is a span that has begun and not yet ended.
type open struct {
	id    int32
	start time.Time
}

// begin opens a span under name as a child of the span open on this job.
func (j *jobTrace) begin(name string) open {
	o := open{id: -1, start: time.Now()}
	if j == nil {
		return o
	}
	parent := int32(-1)
	if len(j.stack) > 0 {
		parent = j.stack[len(j.stack)-1]
	}
	j.t.mu.Lock()
	o.id = int32(len(j.t.spans))
	j.t.spans = append(j.t.spans, span{ID: o.id, Parent: parent, Job: j.job, Name: name})
	j.t.mu.Unlock()
	j.stack = append(j.stack, o.id)
	return o
}

// end closes the innermost open span, attaches the count n taken at the
// boundary, and returns the span's duration.
func (j *jobTrace) end(o open, n int64) time.Duration {
	end := time.Now()
	if j != nil {
		j.stack = j.stack[:len(j.stack)-1]
		j.t.mu.Lock()
		s := &j.t.spans[o.id]
		s.Start, s.End, s.N = o.start.Sub(j.t.t0).Nanoseconds(), end.Sub(j.t.t0).Nanoseconds(), n
		j.t.mu.Unlock()
	}
	return end.Sub(o.start)
}

// span times fn as one span; fn returns the count to attach.
func (j *jobTrace) span(name string, fn func() int64) time.Duration {
	o := j.begin(name)
	return j.end(o, fn())
}

// layerSum totals the spans of one name.
type layerSum struct {
	Calls  int
	SelfNs int64 // duration minus the part child spans cover
	DurNs  int64
	N      int64
}

// summarize computes each span's self time — its duration minus the union
// of its children's intervals — and totals by span name.
func summarize(spans []span) map[string]*layerSum {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sums := map[string]*layerSum{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		at := s.Start // everything before `at` is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		ls := sums[s.Name]
		if ls == nil {
			ls = &layerSum{}
			sums[s.Name] = ls
		}
		ls.Calls++
		ls.DurNs += s.End - s.Start
		ls.SelfNs += s.End - s.Start - covered
		ls.N += s.N
	}
	return sums
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
