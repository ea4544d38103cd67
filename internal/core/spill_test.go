package core

import (
	"bytes"
	"testing"
)

// spillSrc offers the cycle number on two of every three cycles; its
// state is the clock, so it declares none.
type spillSrc struct {
	Base
	out *Port
}

// tripwire aborts the cycle numbered trip, once, after spillSrc's
// cycle-start stores are made.
type tripwire struct {
	Base
	trip  uint64
	armed bool
}

// spillCounter counts data-Yes resolutions, the stores SpillHits counts.
type spillCounter struct{ n uint64 }

func (c *spillCounter) OnCycleBegin(uint64) {}
func (c *spillCounter) OnCycleEnd(uint64)   {}
func (c *spillCounter) OnResolve(_ *Conn, k SigKind, s Status) {
	if k == SigData && s == Yes {
		c.n++
	}
}

func spillAssemble(trip uint64) func(b *Builder) error {
	return func(b *Builder) error {
		for i := 0; i < 3; i++ {
			src := &spillSrc{}
			src.Init(Sub("src", string(rune('a'+i))), src)
			src.Checkpoint()
			src.out = src.AddOutPort("out", PortOpts{MinWidth: 1, MaxWidth: 1})
			src.OnCycleStart(func() {
				if src.Now()%3 == 2 {
					src.out.SendNothing(0)
				} else {
					src.out.Send(0, src.Now())
				}
				src.out.Enable(0)
			})
			snk := &progTestModule{}
			snk.Init(Sub("snk", string(rune('a'+i))), snk)
			snk.AddInPort("in", PortOpts{DefaultAck: Yes})
			b.Add(src)
			b.Add(snk)
			if err := b.Connect(src, "out", snk, "in"); err != nil {
				return err
			}
		}
		tw := &tripwire{trip: trip, armed: true}
		tw.Init("tripwire", tw)
		tw.Checkpoint()
		tw.OnCycleStart(func() {
			if tw.armed && tw.Now() == tw.trip {
				tw.armed = false
				contractPanic("trip", tw.Name(), "aborting the cycle on purpose")
			}
		})
		b.Add(tw)
		return nil
	}
}

// TestSpillHitsMatchesTracer: SpillHits, published once per Step, equals
// a tracer's count of data-Yes resolutions after plain cycles, after a
// cycle a ContractError aborted, and across Snapshot/Restore.
func TestSpillHitsMatchesTracer(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedulerSparse, SchedulerSequential} {
		t.Run(kind.String(), func(t *testing.T) {
			prog, err := Compile(spillAssemble(7), WithScheduler(kind))
			if err != nil {
				t.Fatal(err)
			}
			tr := &spillCounter{}
			sim, err := prog.NewSim(WithTracer(tr))
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, s *Sim, want uint64) {
				t.Helper()
				if got := s.SpillHits(); got != want || want == 0 {
					t.Fatalf("%s: SpillHits = %d, tracer counted %d", what, got, want)
				}
			}
			if err := sim.Run(5); err != nil {
				t.Fatal(err)
			}
			check("after 5 cycles", sim, tr.n)
			if err := sim.Run(5); err == nil {
				t.Fatal("the tripwire cycle did not abort")
			}
			check("after the aborted cycle", sim, tr.n)
			if err := sim.Run(4); err != nil {
				t.Fatal(err)
			}
			check("after resuming", sim, tr.n)

			var snap bytes.Buffer
			if err := sim.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			base := tr.n
			tr2 := &spillCounter{}
			restored, err := prog.Restore(&snap, WithTracer(tr2))
			if err != nil {
				t.Fatal(err)
			}
			check("after Restore", restored, base)
			if err := sim.Run(6); err != nil {
				t.Fatal(err)
			}
			if err := restored.Run(6); err != nil {
				t.Fatal(err)
			}
			check("original, 6 cycles on", sim, tr.n)
			check("restored, 6 cycles on", restored, base+tr2.n)
		})
	}
}
