package pcl

import (
	core "liberty/internal/core"
)

// SelectFn orders a queue's occupied entries for dequeue. It receives the
// entries oldest-first and returns the indices eligible to leave this
// cycle, in offer order. The default (nil) is FIFO: 0, 1, 2, …
//
// This is the algorithmic parameter that turns the one template into an
// instruction window (select ready instructions out of order), a reorder
// buffer (select the oldest, only when complete) or a router I/O buffer
// (plain FIFO).
type SelectFn func(entries []any) []int

// Queue is a capacity-bounded buffer with multi-connection enqueue and
// dequeue ports and proper handshake backpressure. A full queue refuses
// new entries this cycle even if it is draining (classic synchronous FIFO
// semantics).
//
// Ports:
//
//	in  (In,  any width) — enqueue; acked while free slots remain
//	out (Out, any width) — dequeue; connection j is offered the j'th
//	                       selected entry
type Queue struct {
	core.Base
	In  *core.Port
	Out *core.Port

	capacity int
	selectFn SelectFn
	entries  []any // oldest-first
	offered  []int // entry index offered on out conn j this cycle
	selBuf   []int // scratch: the default FIFO selection, or which entries a select function picked
	goneBuf  []int // scratch for cycleEnd's removal list

	cTransIn  *core.Counter
	cTransOut *core.Counter
	cFullStal *core.Counter
	hOcc      *core.Histogram
}

// NewQueue constructs a queue. Parameters:
//
//	capacity (int, default 8)     — maximum entries held
//	select   (SelectFn, optional) — dequeue selection policy
func NewQueue(name string, p core.Params) (*Queue, error) {
	q := &Queue{
		capacity: p.Int("capacity", 8),
		selectFn: core.Fn[SelectFn](p, "select", nil),
	}
	if q.capacity < 1 {
		return nil, &core.ParamError{Param: "capacity", Detail: "must be >= 1"}
	}
	q.Init(name, q)
	q.Checkpoint(&q.entries)
	q.cTransIn = q.Counter("enqueues")
	q.cTransOut = q.Counter("dequeues")
	q.cFullStal = q.Counter("full_stalls")
	q.hOcc = q.Histogram("occupancy")
	q.hOcc.ObserveZeroAsleep() // an empty queue sleeps
	q.In = q.AddInPort("in", core.PortOpts{DefaultAck: core.No})
	q.Out = q.AddOutPort("out")
	q.OnCycleStart(q.cycleStart)
	q.OnReact(q.react)
	q.OnCycleEnd(q.cycleEnd)
	q.MarkSequential() // out is offered from the entries at cycle start; in is acked from in's own lanes and the occupancy
	return q, nil
}

// Len returns the current occupancy.
func (q *Queue) Len() int { return len(q.entries) }

// Cap returns the queue's capacity.
func (q *Queue) Cap() int { return q.capacity }

// Entries returns the live entries oldest-first: the queue's own storage
// (shared slice; callers must not mutate).
func (q *Queue) Entries() []any { return q.entries }

func (q *Queue) cycleStart() {
	q.hOcc.Observe(float64(q.Len()))
	// Offer selected entries downstream.
	sel := q.selected()
	if w := q.Out.Width(); len(sel) > w {
		sel = sel[:w]
	}
	q.offered = append(q.offered[:0], sel...)
	for j, e := range sel {
		q.Out.Send(j, q.entries[e])
		q.Out.Enable(j)
	}
	q.Out.IdleLanes(len(sel), q.Out.Width())
}

func (q *Queue) selected() []int {
	n := q.Len()
	if q.selectFn == nil {
		if cap(q.selBuf) < n {
			q.selBuf = make([]int, n)
		}
		sel := q.selBuf[:n]
		for i := range sel {
			sel[i] = i
		}
		return sel
	}
	sel := q.selectFn(q.entries) //vetlse:ignore the select function is handed the entries, never a port
	if len(q.selBuf) < n {
		q.selBuf = make([]int, max(n, q.capacity))
	}
	picked := q.selBuf // 1 marks an entry already selected; all 0 between calls
	out := sel[:0]
	for _, i := range sel {
		if i < 0 || i >= n || picked[i] != 0 {
			continue
		}
		picked[i] = 1
		out = append(out, i)
	}
	for _, i := range out {
		picked[i] = 0
	}
	return out
}

func (q *Queue) react() {
	// Accept arrivals in connection order while space remains. Capacity is
	// judged against start-of-cycle occupancy: same-cycle dequeues do not
	// free space.
	free := q.capacity - q.Len()
	for i := 0; i < q.In.Width(); i++ {
		if q.In.AckStatus(i).Known() {
			if q.In.AckStatus(i) == core.Yes {
				free--
			}
			continue
		}
		switch q.In.DataStatus(i) {
		case core.Unknown:
			return // later connections must wait to preserve order
		case core.No:
			q.In.Nack(i)
		case core.Yes:
			if free > 0 {
				q.In.Ack(i)
				free--
			} else {
				q.In.Nack(i)
			}
		}
	}
}

func (q *Queue) cycleEnd() {
	// Collect transferred entry indices into persistent scratch
	// (sort.Reverse over an interface would allocate every cycle), sort
	// ascending — the list arrives already ascending under the default
	// FIFO selection, making the insertion sort a single linear scan —
	// and remove them in one compaction pass over the entries instead of
	// one O(n) splice per removal.
	gone := q.goneBuf[:0]
	for j := range q.offered {
		if q.Out.Transferred(j) {
			gone = append(gone, q.offered[j])
		}
	}
	sortAscending(gone)
	q.goneBuf = gone
	if len(gone) > 0 {
		q.entries = compact(q.entries, gone)
		for range gone {
			q.cTransOut.Inc()
		}
	}
	// Then append accepted arrivals in connection order; a firm offer
	// that was not taken is a full stall.
	for i := q.In.NextOffered(0); i >= 0; i = q.In.NextOffered(i + 1) {
		if q.In.Transferred(i) {
			q.entries = append(q.entries, q.In.Data(i))
			q.cTransIn.Inc()
		} else if q.In.EnableStatus(i) == core.Yes {
			q.cFullStal.Inc()
		}
	}
	// Empty after a cycle that moved nothing, the queue offers nothing
	// until an input arrives. (One that just drained stays awake a cycle:
	// a queue passing a stream through would otherwise wake every other.)
	if len(q.entries) == 0 && len(gone) == 0 {
		q.offered = q.offered[:0]
		q.Sleep()
	}
}

// sortAscending sorts a small index slice in place — allocation-free,
// and linear on already-sorted input (the default FIFO selection order).
func sortAscending(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// compact removes the entries at the ascending index list gone in a
// single pass, preserving order.
func compact(entries []any, gone []int) []any {
	w, g := gone[0], 0
	for r := gone[0]; r < len(entries); r++ {
		if g < len(gone) && gone[g] == r {
			g++
			continue
		}
		entries[w] = entries[r]
		w++
	}
	for i := w; i < len(entries); i++ {
		entries[i] = nil // release references past the new length
	}
	return entries[:w]
}

func init() {
	core.Register(&core.Template{
		Name: "pcl.queue",
		Doc:  "capacity-bounded buffer with algorithmic dequeue selection",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewQueue(name, p)
		},
	})
}
