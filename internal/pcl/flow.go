package pcl

import (
	"fmt"

	core "liberty/internal/core"
)

// Tee broadcasts its single input to every output connection. In "all"
// mode (default) delivery is atomic: the enable signal is withheld until
// every output has acked, so either all receivers consume the datum or
// none do. In "any" mode each output's enable mirrors its own ack, and
// the input is accepted when at least one output accepts.
//
// Atomic broadcast requires receivers that ack on offered data without
// waiting for enable (as the queue and arbiter templates do); a receiver
// relying on engine default-ack resolves too late to participate in the
// atomicity decision.
type Tee struct {
	core.Base
	In  *core.Port
	Out *core.Port

	all bool
}

// NewTee constructs a tee. Parameters:
//
//	mode (string, default "all") — "all" or "any" acceptance
func NewTee(name string, p core.Params) (*Tee, error) {
	t := &Tee{}
	switch mode := p.Str("mode", "all"); mode {
	case "all":
		t.all = true
	case "any":
		t.all = false
	default:
		return nil, &core.ParamError{Param: "mode", Detail: fmt.Sprintf("unknown mode %q", mode)}
	}
	t.Init(name, t)
	t.Checkpoint()
	t.In = t.AddInPort("in", core.PortOpts{MinWidth: 1, MaxWidth: 1, DefaultAck: core.No})
	t.Out = t.AddOutPort("out", core.PortOpts{MinWidth: 1})
	t.OnReact(t.react)
	return t, nil
}

func (t *Tee) react() {
	n := t.Out.Width()
	switch t.In.DataStatus(0) {
	case core.Unknown:
		return
	case core.No:
		t.Out.Idle()
		t.In.NackRest()
		return
	}
	for j := 0; j < n; j++ {
		if t.Out.DataStatus(j) == core.Unknown {
			t.Out.Send(j, t.In.Data(0))
		}
	}
	inEn := t.In.EnableStatus(0)
	if inEn == core.No {
		for j := 0; j < n; j++ {
			if t.Out.EnableStatus(j) == core.Unknown {
				t.Out.Disable(j)
			}
		}
		t.In.NackRest()
		return
	}
	yes, no := 0, 0
	for j := 0; j < n; j++ {
		switch t.Out.AckStatus(j) {
		case core.Yes:
			yes++
		case core.No:
			no++
		}
	}
	if t.all {
		// Atomic: enable everyone only when everyone acked and the input
		// is firm; kill the cycle as soon as one output refuses.
		switch {
		case no > 0:
			for j := 0; j < n; j++ {
				if t.Out.EnableStatus(j) == core.Unknown {
					t.Out.Disable(j)
				}
			}
			t.In.NackRest()
		case yes == n && inEn == core.Yes:
			for j := 0; j < n; j++ {
				if t.Out.EnableStatus(j) == core.Unknown {
					t.Out.Enable(j)
				}
			}
			if !t.In.AckStatus(0).Known() {
				t.In.Ack(0)
			}
		}
		return
	}
	// "any": each output's enable mirrors its own ack once the input is
	// firm; the input is accepted when anyone accepts.
	if inEn != core.Yes {
		return
	}
	for j := 0; j < n; j++ {
		if t.Out.EnableStatus(j) != core.Unknown {
			continue
		}
		switch t.Out.AckStatus(j) {
		case core.Yes:
			t.Out.Enable(j)
		case core.No:
			t.Out.Disable(j)
		}
	}
	if !t.In.AckStatus(0).Known() {
		if yes > 0 {
			t.In.Ack(0)
		} else if no == n {
			t.In.Nack(0)
		}
	}
}

// RouteFn maps a datum to the output connection it should leave on.
type RouteFn func(v any) int

// Route steers its single input to exactly one of its outputs, chosen by
// the algorithmic route parameter — the building block of routing stages.
type Route struct {
	core.Base
	In  *core.Port
	Out *core.Port

	route RouteFn
	// sent is the out lane the reactive handler offered the input on this
	// cycle. Scratch, valid only while that lane's data reads Yes: only
	// this handler drives Out data, and default control never resolves
	// data to Yes, so a Yes proves the decision was made this cycle, and a
	// re-react skips the route function and the idling of the other lanes.
	sent int
}

// NewRoute constructs a router stage. Parameters:
//
//	route (RouteFn, required) — destination selector
func NewRoute(name string, p core.Params) (*Route, error) {
	r := &Route{route: core.Fn[RouteFn](p, "route", nil)}
	if r.route == nil {
		return nil, &core.ParamError{Param: "route", Detail: "required algorithmic parameter missing"}
	}
	r.Init(name, r)
	r.Checkpoint()
	// The input may be left unconnected (partial specification): a
	// route stage with nothing upstream simply sends nothing.
	r.In = r.AddInPort("in", core.PortOpts{MaxWidth: 1, DefaultAck: core.No})
	r.Out = r.AddOutPort("out", core.PortOpts{MinWidth: 1})
	r.OnReact(r.react)
	return r, nil
}

func (r *Route) react() {
	if r.In.Width() == 0 {
		r.Out.Idle()
		return
	}
	switch r.In.DataStatus(0) {
	case core.Unknown:
		return
	case core.No:
		r.Out.Idle()
		r.In.NackRest()
		return
	}
	if r.Out.DataStatus(r.sent) != core.Yes {
		n := r.Out.Width()
		dest := r.route(r.In.Data(0))
		if dest < 0 || dest >= n {
			panic(&core.ContractError{Op: "route", Where: r.Name(),
				Detail: fmt.Sprintf("route function returned %d, out width is %d", dest, n)})
		}
		r.sent = dest
		r.Out.IdleLanes(0, dest)
		if r.Out.DataStatus(dest) == core.Unknown {
			r.Out.Send(dest, r.In.Data(0))
			r.Out.Enable(dest)
		}
		r.Out.IdleLanes(dest+1, n)
	}
	if !r.In.AckStatus(0).Known() {
		switch r.Out.AckStatus(r.sent) {
		case core.Yes:
			r.In.Ack(0)
		case core.No:
			r.In.Nack(0)
		}
	}
}

// PredFn decides whether a datum passes a Filter.
type PredFn func(v any) bool

// Filter passes data matching its predicate and silently consumes the
// rest (counting drops).
type Filter struct {
	core.Base
	In  *core.Port
	Out *core.Port

	pred  PredFn
	cDrop *core.Counter
}

// NewFilter constructs a filter. Parameters:
//
//	pred (PredFn, required) — pass predicate
func NewFilter(name string, p core.Params) (*Filter, error) {
	f := &Filter{pred: core.Fn[PredFn](p, "pred", nil)}
	if f.pred == nil {
		return nil, &core.ParamError{Param: "pred", Detail: "required algorithmic parameter missing"}
	}
	f.Init(name, f)
	f.Checkpoint()
	f.cDrop = f.Counter("dropped")
	f.In = f.AddInPort("in", core.PortOpts{MinWidth: 1, MaxWidth: 1, DefaultAck: core.No})
	f.Out = f.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	f.OnReact(f.react)
	f.OnCycleEnd(f.cycleEnd)
	return f, nil
}

// Dropped returns the number of values consumed without forwarding.
func (f *Filter) Dropped() int64 {
	return f.cDrop.Value()
}

func (f *Filter) react() {
	switch f.In.DataStatus(0) {
	case core.Unknown:
		return
	case core.No:
		f.Out.Idle()
		f.In.NackRest()
		return
	}
	if f.pred(f.In.Data(0)) {
		if f.Out.DataStatus(0) == core.Unknown {
			f.Out.Send(0, f.In.Data(0))
			f.Out.Enable(0)
		}
		if !f.In.AckStatus(0).Known() {
			switch f.Out.AckStatus(0) {
			case core.Yes:
				f.In.Ack(0)
			case core.No:
				f.In.Nack(0)
			}
		}
		return
	}
	// Dropped: consume without forwarding.
	f.Out.Idle()
	if !f.In.AckStatus(0).Known() {
		f.In.Ack(0)
	}
}

func (f *Filter) cycleEnd() {
	if f.In.Transferred(0) && !f.Out.Transferred(0) {
		f.cDrop.Inc()
	}
}

func init() {
	core.Register(&core.Template{
		Name: "pcl.tee",
		Doc:  "broadcasts one input to all outputs",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewTee(name, p)
		},
	})
	core.Register(&core.Template{
		Name: "pcl.route",
		Doc:  "steers input to one output via an algorithmic route function",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewRoute(name, p)
		},
	})
	core.Register(&core.Template{
		Name: "pcl.filter",
		Doc:  "passes matching data, consumes the rest",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewFilter(name, p)
		},
	})
}
