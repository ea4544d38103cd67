package core_test

import (
	"errors"
	"strings"
	"testing"

	core "liberty/internal/core"
)

// typedSource drives uint64 sequence numbers through a PayloadUint64 out
// port — the minimal fast-lane driver.
type typedSource struct {
	core.Base
	out  *core.Port
	next uint64
}

func newTypedSource(name string) *typedSource {
	s := &typedSource{}
	s.Init(name, s)
	s.out = s.AddOutPort("out", core.PortOpts{MinWidth: 1, Payload: core.PayloadUint64})
	s.OnCycleStart(s.cycleStart)
	s.OnCycleEnd(s.cycleEnd)
	return s
}

func (s *typedSource) cycleStart() {
	for i := 0; i < s.out.Width(); i++ {
		s.out.SendUint64(i, s.next+uint64(i))
		s.out.Enable(i)
	}
}

func (s *typedSource) cycleEnd() {
	for i := 0; i < s.out.Width(); i++ {
		if s.out.Transferred(i) {
			s.next++
		}
	}
}

// typedSink reads through the typed path and records what it saw.
type typedSink struct {
	core.Base
	in      *core.Port
	payload core.PayloadKind
	got     []uint64
}

func newTypedSink(name string, payload core.PayloadKind) *typedSink {
	k := &typedSink{payload: payload}
	k.Init(name, k)
	k.in = k.AddInPort("in", core.PortOpts{Payload: payload})
	k.OnCycleEnd(k.cycleEnd)
	return k
}

func (k *typedSink) cycleEnd() {
	for i := 0; i < k.in.Width(); i++ {
		if u, ok := k.in.TransferredUint64(i); ok {
			k.got = append(k.got, u)
		}
	}
}

func TestScalarLaneEndToEnd(t *testing.T) {
	src := newTypedSource("src")
	snk := newTypedSink("snk", core.PayloadUint64)
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(snk)
		b.Connect(src, "out", snk, "in")
	})
	c := sim.Conns()[0]
	if !c.Scalar() {
		t.Fatalf("uint64 driver -> uint64 sink should elect the scalar lane")
	}
	run(t, sim, 5)
	want := []uint64{0, 1, 2, 3, 4}
	if len(snk.got) != len(want) {
		t.Fatalf("sink received %v, want %v", snk.got, want)
	}
	for i, v := range want {
		if snk.got[i] != v {
			t.Fatalf("sink received %v, want %v", snk.got, want)
		}
	}
	if hits := sim.SpillHits(); hits != 0 {
		t.Fatalf("scalar-lane transfers recorded %d spill hits, want 0", hits)
	}
}

// TestSpillFallbackMixedKinds pins the inference rule's conservative arm:
// a PayloadAny sink forces the connection onto the spill lane even under
// a uint64 driver, and the typed send/read API stays correct there —
// merely boxed — with every data store counted as a spill hit.
func TestSpillFallbackMixedKinds(t *testing.T) {
	src := newTypedSource("src")
	snk := newTypedSink("snk", core.PayloadAny)
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(snk)
		b.Connect(src, "out", snk, "in")
	})
	c := sim.Conns()[0]
	if c.Scalar() {
		t.Fatalf("PayloadAny sink must force the spill lane (mixed payload kinds)")
	}
	run(t, sim, 4)
	want := []uint64{0, 1, 2, 3}
	if len(snk.got) != len(want) {
		t.Fatalf("sink received %v, want %v", snk.got, want)
	}
	for i, v := range want {
		if snk.got[i] != v {
			t.Fatalf("sink received %v, want %v", snk.got, want)
		}
	}
	if hits := sim.SpillHits(); hits != 4 {
		t.Fatalf("spill-lane transfers recorded %d spill hits, want 4", hits)
	}
}

// badTypeSource drives a non-uint64 value through the boxed Send API on a
// port that declared PayloadUint64 — a contract violation once the
// connection is on the scalar lane.
type badTypeSource struct {
	core.Base
	out *core.Port
}

func TestScalarLaneTypeMismatchPanics(t *testing.T) {
	src := &badTypeSource{}
	src.Init("src", src)
	src.out = src.AddOutPort("out", core.PortOpts{MinWidth: 1, Payload: core.PayloadUint64})
	src.OnCycleStart(func() {
		src.out.Send(0, "not a uint64")
		src.out.Enable(0)
	})
	snk := newTypedSink("snk", core.PayloadUint64)
	sim := build(t, func(b *core.Builder) {
		b.Add(src)
		b.Add(snk)
		b.Connect(src, "out", snk, "in")
	})
	err := sim.Step()
	var ce *core.ContractError
	if !errors.As(err, &ce) {
		t.Fatalf("Step error = %v, want *ContractError", err)
	}
	if !strings.Contains(ce.Error(), "uint64") {
		t.Fatalf("error should name the expected payload kind: %v", ce)
	}
}

// doubleSender raises the data signal twice with conflicting statuses.
type doubleSender struct {
	core.Base
	out *core.Port
}

func newDoubleSender(name string, payload core.PayloadKind) *doubleSender {
	d := &doubleSender{}
	d.Init(name, d)
	d.out = d.AddOutPort("out", core.PortOpts{MinWidth: 1, Payload: payload})
	d.OnCycleStart(func() {
		if payload == core.PayloadUint64 {
			d.out.SendUint64(0, 7)
		} else {
			d.out.Send(0, 7)
		}
		d.out.SendNothing(0) // conflicts: data already resolved Yes
	})
	return d
}

// TestSingleAssignmentPanicsBothLanes verifies the single-assignment
// contract is enforced identically on the scalar fast lane and the boxed
// spill lane: re-raising a resolved data signal to a different status is
// a contract violation on both.
func TestSingleAssignmentPanicsBothLanes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload core.PayloadKind
	}{
		{"scalar-lane", core.PayloadUint64},
		{"spill-lane", core.PayloadUnspecified},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newDoubleSender("src", tc.payload)
			snk := newTypedSink("snk", core.PayloadUint64)
			sim := build(t, func(b *core.Builder) {
				b.Add(src)
				b.Add(snk)
				b.Connect(src, "out", snk, "in")
			})
			err := sim.Step()
			var ce *core.ContractError
			if !errors.As(err, &ce) {
				t.Fatalf("Step error = %v, want *ContractError", err)
			}
			if !strings.Contains(ce.Error(), "already resolved") {
				t.Fatalf("error should report the conflicting re-raise: %v", ce)
			}
		})
	}
}

// TestReleasedReadsAfterCommit pins the post-commit read contract on both
// lanes: after Step returns, statuses (and Transferred) remain readable
// but data values do not — a tracer or harness holding a Conn cannot
// observe a released spill value or a stale scalar between cycles.
func TestReleasedReadsAfterCommit(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload core.PayloadKind
	}{
		{"scalar-lane", core.PayloadUint64},
		{"spill-lane", core.PayloadAny},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newTypedSource("src")
			snk := newTypedSink("snk", tc.payload)
			sim := build(t, func(b *core.Builder) {
				b.Add(src)
				b.Add(snk)
				b.Connect(src, "out", snk, "in")
			})
			run(t, sim, 1)
			c := sim.Conns()[0]
			if !src.out.Transferred(0) {
				t.Fatalf("handshake should have completed")
			}
			if c.Status(core.SigData) != core.Yes {
				t.Fatalf("data status should remain readable after commit")
			}
			if v, ok := c.Data(); ok || v != nil {
				t.Fatalf("Data after commit = (%v, %v), want (nil, false)", v, ok)
			}
			if v, ok := src.out.TransferredData(0); ok || v != nil {
				t.Fatalf("TransferredData after commit = (%v, %v), want (nil, false)", v, ok)
			}
			if u, ok := src.out.TransferredUint64(0); ok || u != 0 {
				t.Fatalf("TransferredUint64 after commit = (%d, %v), want (0, false)", u, ok)
			}
		})
	}
}

// TestTypedFastLaneWide runs a wide all-scalar netlist: every lane of a
// 16-wide port pair moves its value on the uint64 lane each cycle, and
// nothing spills.
func TestTypedFastLaneWide(t *testing.T) {
	const width = 16
	src := newTypedSource("src")
	snk := newTypedSink("snk", core.PayloadUint64)
	b := core.NewBuilder()
	b.Add(src)
	b.Add(snk)
	for i := 0; i < width; i++ {
		b.Connect(src, "out", snk, "in")
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const cycles = 50
	run(t, sim, cycles)
	if len(snk.got) != width*cycles {
		t.Fatalf("sink received %d items, want %d", len(snk.got), width*cycles)
	}
	for _, c := range sim.Conns() {
		if !c.Scalar() {
			t.Fatalf("all-uint64 netlist should be entirely on the scalar lane")
		}
	}
	if hits := sim.SpillHits(); hits != 0 {
		t.Fatalf("scalar-lane run recorded %d spill hits, want 0", hits)
	}
}
