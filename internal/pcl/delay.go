package pcl

import (
	core "liberty/internal/core"
)

// Delay is a fixed-latency pipeline: an entry accepted on in connection i
// is offered on out connection i exactly latency cycles later (later if
// back-pressured). Pairing in/out connections by index lets one instance
// model an n-lane pipeline. Capacity per lane bounds entries in flight.
type Delay struct {
	core.Base
	In  *core.Port
	Out *core.Port

	latency  int
	capacity int
	lanes    [][]delayEntry

	cAccepted *core.Counter
	cDeparted *core.Counter
}

// delayEntry's fields are exported so encoding/gob can checkpoint them.
type delayEntry struct {
	V     any
	Ready uint64 // first cycle the entry may depart
}

// NewDelay constructs a delay line. Parameters:
//
//	latency  (int, default 1) — cycles between acceptance and availability
//	capacity (int, default latency) — max in-flight entries per lane
func NewDelay(name string, p core.Params) (*Delay, error) {
	d := &Delay{latency: p.Int("latency", 1)}
	if d.latency < 1 {
		return nil, &core.ParamError{Param: "latency", Detail: "must be >= 1"}
	}
	d.capacity = p.Int("capacity", d.latency)
	if d.capacity < 1 {
		return nil, &core.ParamError{Param: "capacity", Detail: "must be >= 1"}
	}
	d.Init(name, d)
	d.Checkpoint(&d.lanes)
	d.cAccepted = d.Counter("accepted")
	d.cDeparted = d.Counter("departed")
	d.In = d.AddInPort("in", core.PortOpts{DefaultAck: core.No})
	d.Out = d.AddOutPort("out")
	d.OnCycleStart(d.cycleStart)
	d.OnReact(d.react)
	d.OnCycleEnd(d.cycleEnd)
	d.MarkSequential() // out is offered from the lanes at cycle start; in is acked from in's own lanes and the occupancy
	return d, nil
}

// InFlight returns the number of entries in lane i.
func (d *Delay) InFlight(i int) int { return len(d.lanes[i]) }

func (d *Delay) lane(i int) []delayEntry {
	for len(d.lanes) <= i {
		d.lanes = append(d.lanes, nil)
	}
	return d.lanes[i]
}

func (d *Delay) cycleStart() {
	now := d.Now()
	idle := 0 // lanes below i not yet resolved: idled in one run, in lane order
	for i := 0; i < d.Out.Width(); i++ {
		lane := d.lane(i)
		if len(lane) == 0 || now < lane[0].Ready {
			continue
		}
		d.Out.IdleLanes(idle, i)
		idle = i + 1
		d.Out.Send(i, lane[0].V)
		d.Out.Enable(i)
	}
	d.Out.IdleLanes(idle, d.Out.Width())
}

func (d *Delay) react() {
	for i := 0; i < d.In.Width(); i++ {
		if d.In.AckStatus(i).Known() {
			continue
		}
		switch d.In.DataStatus(i) {
		case core.Yes:
			if len(d.lane(i)) < d.capacity {
				d.In.Ack(i)
			} else {
				d.In.Nack(i)
			}
		case core.No:
			d.In.Nack(i)
		}
	}
}

func (d *Delay) cycleEnd() {
	for i := d.Out.NextTransferred(0); i >= 0; i = d.Out.NextTransferred(i + 1) {
		d.lanes[i] = d.lanes[i][1:]
		d.cDeparted.Inc()
	}
	for i := d.In.NextTransferred(0); i >= 0; i = d.In.NextTransferred(i + 1) {
		e := delayEntry{V: d.In.Data(i), Ready: d.Now() + uint64(d.latency)}
		d.lanes[i] = append(d.lane(i), e)
		d.cAccepted.Inc()
	}
}

func init() {
	core.Register(&core.Template{
		Name: "pcl.delay",
		Doc:  "fixed-latency multi-lane pipeline with backpressure",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewDelay(name, p)
		},
	})
}
