package core_test

import (
	"errors"
	"strings"
	"testing"

	core "liberty/internal/core"
)

// The subtests below are named "spill-lane" after the boxed data lane —
// the one lane the plane has, whose stores Sim.SpillHits counts.

// seqSource offers sequence numbers on every lane each cycle.
type seqSource struct {
	core.Base
	out  *core.Port
	next uint64
}

func newSeqSource(name string) *seqSource {
	s := &seqSource{}
	s.Init(name, s)
	s.out = s.AddOutPort("out", core.PortOpts{MinWidth: 1})
	s.OnCycleStart(s.cycleStart)
	s.OnCycleEnd(s.cycleEnd)
	return s
}

func (s *seqSource) cycleStart() {
	for i := 0; i < s.out.Width(); i++ {
		s.out.Send(i, s.next+uint64(i))
		s.out.Enable(i)
	}
}

func (s *seqSource) cycleEnd() {
	for i := 0; i < s.out.Width(); i++ {
		if s.out.Transferred(i) {
			s.next++
		}
	}
}

// collectSink records what transferred to it.
type collectSink struct {
	core.Base
	in  *core.Port
	got []any
}

func newCollectSink(name string) *collectSink {
	k := &collectSink{}
	k.Init(name, k)
	k.in = k.AddInPort("in", core.PortOpts{})
	k.OnCycleEnd(k.cycleEnd)
	return k
}

func (k *collectSink) cycleEnd() {
	for i := 0; i < k.in.Width(); i++ {
		if v, ok := k.in.TransferredData(i); ok {
			k.got = append(k.got, v)
		}
	}
}

// doubleSender raises the data signal twice with conflicting statuses.
type doubleSender struct {
	core.Base
	out *core.Port
}

func newDoubleSender(name string) *doubleSender {
	d := &doubleSender{}
	d.Init(name, d)
	d.out = d.AddOutPort("out", core.PortOpts{MinWidth: 1})
	d.OnCycleStart(func() {
		d.out.Send(0, 7)
		d.out.SendNothing(0) // conflicts: data already resolved Yes
	})
	return d
}

// TestSingleAssignmentPanicsBothLanes verifies the single-assignment
// contract on the data lane: re-raising a resolved data signal to a
// different status is a contract violation.
func TestSingleAssignmentPanicsBothLanes(t *testing.T) {
	t.Run("spill-lane", func(t *testing.T) {
		src := newDoubleSender("src")
		snk := newCollectSink("snk")
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

// TestReleasedReadsAfterCommit pins the post-commit read contract: after
// Step returns, statuses (and Transferred) remain readable but data
// values do not — a tracer or harness holding a Conn cannot observe a
// released value between cycles.
func TestReleasedReadsAfterCommit(t *testing.T) {
	t.Run("spill-lane", func(t *testing.T) {
		src := newSeqSource("src")
		snk := newCollectSink("snk")
		sim := build(t, func(b *core.Builder) {
			b.Add(src)
			b.Add(snk)
			b.Connect(src, "out", snk, "in")
		})
		run(t, sim, 1)
		if len(snk.got) != 1 || snk.got[0] != uint64(0) {
			t.Fatalf("sink received %v during the cycle, want [0]", snk.got)
		}
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
		if hits := sim.SpillHits(); hits != 1 {
			t.Fatalf("SpillHits = %d after one transfer, want 1", hits)
		}
	})
}
