package pcl

import (
	"bytes"
	"encoding/gob"
)

// This file makes every pcl template checkpointable: each handler-bearing
// module implements core.Stateful so core.Sim.Snapshot can serialize the
// module's private simulation state and core.Program.Restore can replay
// it onto a freshly stamped Sim. Stateless modules (tee, route, filter,
// clockgate — all their behavior derives from construction parameters and
// the current cycle) return an empty blob.
//
// Boxed ([]any) payloads travel through encoding/gob: a model that flows
// custom concrete types through pcl queues/sources must gob.Register
// them before calling Snapshot. The common primitives and the pcl memory
// messages are registered here.

func init() {
	gob.Register(int(0))
	gob.Register(int8(0))
	gob.Register(int16(0))
	gob.Register(int32(0))
	gob.Register(int64(0))
	gob.Register(uint(0))
	gob.Register(uint8(0))
	gob.Register(uint16(0))
	gob.Register(uint32(0))
	gob.Register(uint64(0))
	gob.Register(float32(0))
	gob.Register(float64(0))
	gob.Register(false)
	gob.Register("")
	gob.Register(MemReq{})
	gob.Register(MemResp{})
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(blob []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(blob)).Decode(v)
}

// stateDelayEntry is the exported gob mirror of delayEntry.
type stateDelayEntry struct {
	V     any
	Ready uint64
}

func packLanes(lanes [][]delayEntry) [][]stateDelayEntry {
	out := make([][]stateDelayEntry, len(lanes))
	for i, lane := range lanes {
		out[i] = make([]stateDelayEntry, len(lane))
		for j, e := range lane {
			out[i][j] = stateDelayEntry{V: e.v, Ready: e.ready}
		}
	}
	return out
}

func unpackLanes(lanes [][]stateDelayEntry) [][]delayEntry {
	out := make([][]delayEntry, len(lanes))
	for i, lane := range lanes {
		out[i] = make([]delayEntry, len(lane))
		for j, e := range lane {
			out[i][j] = delayEntry{v: e.V, ready: e.Ready}
		}
	}
	return out
}

// sourceState is Source's serialized form. Rate is included so a rate
// changed after construction (Source.SetRate) survives a checkpoint.
type sourceState struct {
	Rate    float64
	Pending []any
	Seq     uint64
	Done    bool
}

// MarshalState implements core.Stateful.
func (s *Source) MarshalState() ([]byte, error) {
	return gobEncode(sourceState{
		Rate:    s.rate,
		Pending: s.pending,
		Seq:     s.seq,
		Done:    s.done,
	})
}

// UnmarshalState implements core.Stateful.
func (s *Source) UnmarshalState(blob []byte) error {
	var st sourceState
	if err := gobDecode(blob, &st); err != nil {
		return err
	}
	s.rate = st.Rate
	s.pending = st.Pending
	s.seq = st.Seq
	s.done = st.Done
	return nil
}

type sinkState struct {
	Received []any
}

// MarshalState implements core.Stateful.
func (s *Sink) MarshalState() ([]byte, error) {
	return gobEncode(sinkState{Received: s.received})
}

// UnmarshalState implements core.Stateful.
func (s *Sink) UnmarshalState(blob []byte) error {
	var st sinkState
	if err := gobDecode(blob, &st); err != nil {
		return err
	}
	s.received = st.Received
	return nil
}

type queueState struct {
	Entries []any
}

// MarshalState implements core.Stateful.
func (q *Queue) MarshalState() ([]byte, error) {
	return gobEncode(queueState{Entries: q.entries})
}

// UnmarshalState implements core.Stateful.
func (q *Queue) UnmarshalState(blob []byte) error {
	var st queueState
	if err := gobDecode(blob, &st); err != nil {
		return err
	}
	q.entries = st.Entries
	return nil
}

type delayState struct {
	Lanes [][]stateDelayEntry
}

// MarshalState implements core.Stateful.
func (d *Delay) MarshalState() ([]byte, error) {
	return gobEncode(delayState{Lanes: packLanes(d.lanes)})
}

// UnmarshalState implements core.Stateful.
func (d *Delay) UnmarshalState(blob []byte) error {
	var st delayState
	if err := gobDecode(blob, &st); err != nil {
		return err
	}
	d.lanes = unpackLanes(st.Lanes)
	return nil
}

type arbiterState struct {
	Last int
}

// MarshalState implements core.Stateful.
func (a *Arbiter) MarshalState() ([]byte, error) {
	return gobEncode(arbiterState{Last: a.last})
}

// UnmarshalState implements core.Stateful.
func (a *Arbiter) UnmarshalState(blob []byte) error {
	var st arbiterState
	if err := gobDecode(blob, &st); err != nil {
		return err
	}
	a.last = st.Last
	return nil
}

type memArrayState struct {
	Words   []uint32
	Pending [][]stateDelayEntry
}

// MarshalState implements core.Stateful.
func (m *MemArray) MarshalState() ([]byte, error) {
	return gobEncode(memArrayState{Words: m.words, Pending: packLanes(m.pending)})
}

// UnmarshalState implements core.Stateful.
func (m *MemArray) UnmarshalState(blob []byte) error {
	var st memArrayState
	if err := gobDecode(blob, &st); err != nil {
		return err
	}
	m.words = st.Words
	m.pending = unpackLanes(st.Pending)
	return nil
}

// The remaining templates hold no mutable simulation state between
// cycles — everything they do derives from construction parameters and
// the signals of the current cycle — but they do carry handlers, so they
// implement core.Stateful with an empty blob to stay snapshottable.

// MarshalState implements core.Stateful.
func (t *Tee) MarshalState() ([]byte, error) { return nil, nil }

// UnmarshalState implements core.Stateful.
func (t *Tee) UnmarshalState([]byte) error { return nil }

// MarshalState implements core.Stateful.
func (r *Route) MarshalState() ([]byte, error) { return nil, nil }

// UnmarshalState implements core.Stateful.
func (r *Route) UnmarshalState([]byte) error { return nil }

// MarshalState implements core.Stateful.
func (f *Filter) MarshalState() ([]byte, error) { return nil, nil }

// UnmarshalState implements core.Stateful.
func (f *Filter) UnmarshalState([]byte) error { return nil }

// MarshalState implements core.Stateful.
func (g *ClockGate) MarshalState() ([]byte, error) { return nil, nil }

// UnmarshalState implements core.Stateful.
func (g *ClockGate) UnmarshalState([]byte) error { return nil }
