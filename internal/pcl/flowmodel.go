package pcl

// flowmodel.go contributes per-template transfer functions to the
// whole-program dataflow analysis (core.AnalyzeFlow, DESIGN.md Appendix
// G). Each FlowTransfer abstracts the template's handlers over the
// analysis lattice: it must be a pure function of construction parameters
// and input facts, and must propose a fact for every signal the
// template's cycle-start or reactive handlers can ever drive. Templates
// without a transfer function here (arbiter, memarray) are treated as
// opaque — sound, just imprecise.

import (
	core "liberty/internal/core"
)

// FlowTransfer implements core.FlowModel. A source's offers depend only
// on its construction parameters: rate 0 never generates, so the out
// signals are dead; rate 1 with no item budget and the default generator
// offers on every cycle (the default generator never exhausts and a
// back-pressured offer is re-offered); anything else — probabilistic
// injection, a finite count, a custom generator that may go bursty or
// exhaust — varies cycle to cycle.
func (s *Source) FlowTransfer(f *core.Flow) {
	for i := 0; i < s.Out.Width(); i++ {
		switch {
		case s.rate == 0:
			f.SetData(s.Out, i, core.FlowNo)
			f.SetEnable(s.Out, i, core.FlowNo)
		case s.rate >= 1 && s.count == 0 && s.defaultGen:
			f.SetData(s.Out, i, core.FlowYes)
			f.SetEnable(s.Out, i, core.FlowYes)
		default:
			f.SetData(s.Out, i, core.FlowTop)
			f.SetEnable(s.Out, i, core.FlowTop)
		}
	}
}

// FlowTransfer implements core.FlowModel. With a dead input nothing ever
// crosses the gate on ticking or blocked cycles alike. With divisor 1 the
// gate ticks every cycle and is a pure passthrough: data flows through,
// enable mirrors data firmness, and the upstream ack mirrors the
// downstream ack on offered data (a blocked cycle can never be observed).
// Any other divisor joins in the blocked-cycle behavior — send nothing,
// disable, nack — so only dead-input facts stay constant.
func (g *ClockGate) FlowTransfer(f *core.Flow) {
	in := f.Facts(g.In, 0)
	if in.Data == core.FlowNo {
		f.SetData(g.Out, 0, core.FlowNo)
		f.SetEnable(g.Out, 0, core.FlowNo)
		f.SetAck(g.In, 0, core.FlowNo)
		return
	}
	out := f.Facts(g.Out, 0)
	ack := out.Ack
	if in.Data != core.FlowYes {
		// Data-No cycles nack regardless of downstream.
		ack = ack.Join(core.FlowNo)
	}
	if g.divisor == 1 {
		f.SetData(g.Out, 0, in.Data)
		f.SetEnable(g.Out, 0, in.Data)
		f.SetAck(g.In, 0, ack)
		return
	}
	f.SetData(g.Out, 0, in.Data.Join(core.FlowNo))
	f.SetEnable(g.Out, 0, in.Data.Join(core.FlowNo))
	f.SetAck(g.In, 0, ack.Join(core.FlowNo))
}

// FlowTransfer implements core.FlowModel (dead-input propagation).
func (q *Queue) FlowTransfer(f *core.Flow) { deadPropagate(f, q.In, q.Out) }

// FlowTransfer implements core.FlowModel (dead-input propagation).
func (d *Delay) FlowTransfer(f *core.Flow) { deadPropagate(f, d.In, d.Out) }

// FlowTransfer implements core.FlowModel (dead-input propagation).
func (t *Tee) FlowTransfer(f *core.Flow) { deadPropagate(f, t.In, t.Out) }

// FlowTransfer implements core.FlowModel (dead-input propagation).
func (r *Route) FlowTransfer(f *core.Flow) { deadPropagate(f, r.In, r.Out) }

// FlowTransfer implements core.FlowModel (dead-input propagation).
func (fl *Filter) FlowTransfer(f *core.Flow) { deadPropagate(f, fl.In, fl.Out) }

// deadPropagate is the shared transfer function for the forwarding
// templates (queue, delay, tee, route, filter): when every input is
// provably dead — or there are no inputs at all — nothing can ever be
// buffered or forwarded, so every output sends nothing and disables and
// every input nacks, exactly the templates' idle-handler behavior. Any
// live input makes the whole template opaque (⊤): buffering, latency,
// predicates and broadcast acceptance all make the outputs vary. While
// some input fact is still ⊥ the proposal stays ⊥ so a premature ⊤ never
// sticks.
func deadPropagate(f *core.Flow, in, out *core.Port) {
	dead, bottom := true, false
	for i := 0; i < in.Width(); i++ {
		switch f.Facts(in, i).Data {
		case core.FlowNo:
		case core.FlowBottom:
			bottom = true
		default:
			dead = false
		}
	}
	switch {
	case !dead:
		for j := 0; j < out.Width(); j++ {
			f.SetData(out, j, core.FlowTop)
			f.SetEnable(out, j, core.FlowTop)
		}
		for i := 0; i < in.Width(); i++ {
			f.SetAck(in, i, core.FlowTop)
		}
	case bottom:
		for j := 0; j < out.Width(); j++ {
			f.SetData(out, j, core.FlowBottom)
			f.SetEnable(out, j, core.FlowBottom)
		}
		for i := 0; i < in.Width(); i++ {
			f.SetAck(in, i, core.FlowBottom)
		}
	default:
		for j := 0; j < out.Width(); j++ {
			f.SetData(out, j, core.FlowNo)
			f.SetEnable(out, j, core.FlowNo)
		}
		for i := 0; i < in.Width(); i++ {
			f.SetAck(in, i, core.FlowNo)
		}
	}
}
