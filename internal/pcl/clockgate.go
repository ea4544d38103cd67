package pcl

import (
	core "liberty/internal/core"
)

// ClockGate passes data only on cycles where its divided clock ticks
// (cycle % divisor == phase), refusing transfers otherwise. Placing one
// on a boundary models a slower clock domain — a DSP at half rate, a
// radio front end at an eighth — without any engine support for multiple
// clocks, the way LSE models mixed-rate systems.
type ClockGate struct {
	core.Base
	In  *core.Port
	Out *core.Port

	divisor uint64
	phase   uint64
}

// NewClockGate constructs a clock-domain gate. Parameters:
//
//	divisor (int, default 2) — pass on every divisor'th cycle
//	phase   (int, default 0) — offset of the passing cycle
func NewClockGate(name string, p core.Params) (*ClockGate, error) {
	g := &ClockGate{
		divisor: uint64(p.Int("divisor", 2)),
		phase:   uint64(p.Int("phase", 0)),
	}
	if g.divisor < 1 {
		return nil, &core.ParamError{Param: "divisor", Detail: "must be >= 1"}
	}
	g.Init(name, g)
	g.Checkpoint()
	g.In = g.AddInPort("in", core.PortOpts{MinWidth: 1, MaxWidth: 1, DefaultAck: core.No})
	g.Out = g.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	g.OnReact(g.react)
	// The reactive handler reads Now(), but only once data is offered:
	// with none, it sends nothing and nacks on every cycle, ticking or
	// not, so its idle drives are a function of what it observes and its
	// cluster may close.
	return g, nil
}

func (g *ClockGate) ticking() bool { return g.Now()%g.divisor == g.phase%g.divisor }

func (g *ClockGate) react() {
	if !g.ticking() {
		// The slow domain is not clocked this cycle: nothing crosses.
		if g.Out.DataStatus(0) == core.Unknown {
			g.Out.SendNothing(0)
			g.Out.Disable(0)
		}
		if !g.In.AckStatus(0).Known() {
			g.In.Nack(0)
		}
		return
	}
	switch g.In.DataStatus(0) {
	case core.Unknown:
		return
	case core.No:
		if g.Out.DataStatus(0) == core.Unknown {
			g.Out.SendNothing(0)
			g.Out.Disable(0)
		}
		if !g.In.AckStatus(0).Known() {
			g.In.Nack(0)
		}
		return
	}
	if g.Out.DataStatus(0) == core.Unknown {
		g.Out.Send(0, g.In.Data(0))
		g.Out.Enable(0)
	}
	if !g.In.AckStatus(0).Known() {
		switch g.Out.AckStatus(0) {
		case core.Yes:
			g.In.Ack(0)
		case core.No:
			g.In.Nack(0)
		}
	}
}

func init() {
	core.Register(&core.Template{
		Name: "pcl.clockgate",
		Doc:  "clock-domain boundary: passes data every divisor'th cycle",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewClockGate(name, p)
		},
	})
}
