package ccl

import (
	"fmt"

	core "liberty/internal/core"
)

// Link is a point-to-point channel with propagation latency and
// 1-flit/cycle bandwidth: accepting a Size-flit packet occupies the link
// for Size cycles (serialization) and delivers the packet latency cycles
// after serialization completes. Backpressure from the far side holds
// delivered packets on the link.
//
// Ports:
//
//	in  (In,  width 1)
//	out (Out, width 1)
type Link struct {
	core.Base
	In  *core.Port
	Out *core.Port

	latency   int
	capacity  int
	busyUntil uint64
	// inflight is a ring of capacity entries: the oldest packet sits at
	// head, n are in flight, and a departed slot is cleared so the ring
	// pins no delivered packet.
	inflight []linkEntry
	head, n  int

	cFlits *core.Counter
	cPkts  *core.Counter
}

type linkEntry struct {
	pkt   *Packet
	ready uint64
}

// NewLink constructs a link. Parameters:
//
//	latency  (int, default 1) — propagation cycles after serialization
//	capacity (int, default 4) — packets in flight
func NewLink(name string, p core.Params) (*Link, error) {
	l := &Link{
		latency:  p.Int("latency", 1),
		capacity: p.Int("capacity", 4),
	}
	if l.latency < 0 {
		return nil, &core.ParamError{Param: "latency", Detail: "must be >= 0"}
	}
	if l.capacity < 1 {
		return nil, &core.ParamError{Param: "capacity", Detail: "must be >= 1"}
	}
	l.inflight = make([]linkEntry, l.capacity)
	l.Init(name, l)
	l.cFlits = l.Counter("flits")
	l.cPkts = l.Counter("packets")
	l.In = l.AddInPort("in", core.PortOpts{MinWidth: 1, MaxWidth: 1, DefaultAck: core.No})
	l.Out = l.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	l.OnCycleStart(l.cycleStart)
	l.OnReact(l.react)
	l.OnCycleEnd(l.cycleEnd)
	l.MarkSequential() // out is offered from inflight at cycle start; in is acked from in's own lane, busyUntil and inflight
	return l, nil
}

// Congestion is a probe for adaptive routing: packets in flight plus one
// while the serializer is busy. It only changes at end-of-cycle, so
// reading it from another module's reactive handler is stable and safe.
func (l *Link) Congestion() int {
	c := l.n
	if l.Now() < l.busyUntil {
		c++
	}
	return c
}

func (l *Link) cycleStart() {
	if e := &l.inflight[l.head]; l.n > 0 && l.Now() >= e.ready {
		l.Out.Send(0, e.pkt)
		l.Out.Enable(0)
	}
	l.Out.Idle()
}

func (l *Link) react() {
	switch l.In.DataStatus(0) {
	case core.No:
		l.In.NackRest()
	case core.Yes:
		if l.In.AckStatus(0).Known() {
			return
		}
		if l.Now() >= l.busyUntil && l.n < l.capacity {
			l.In.Ack(0)
		} else {
			l.In.Nack(0)
		}
	}
}

func (l *Link) cycleEnd() {
	if l.Out.Transferred(0) {
		l.inflight[l.head] = linkEntry{}
		l.head = (l.head + 1) % l.capacity
		l.n--
	}
	if v, ok := l.In.TransferredData(0); ok {
		pkt, ok := v.(*Packet)
		if !ok {
			panic(&core.ContractError{Op: "link transfer", Where: l.Name(),
				Detail: fmt.Sprintf("expected *ccl.Packet, got %T", v)})
		}
		pkt.Hops++
		size := pkt.Size
		if size < 1 {
			size = 1
		}
		// Serialization occupies the link for size cycles starting now;
		// the packet emerges after propagation on top of that.
		l.busyUntil = l.Now() + uint64(size)
		// react acks only while n < capacity, so the ring has a free slot.
		l.inflight[(l.head+l.n)%l.capacity] = linkEntry{
			pkt:   pkt,
			ready: l.Now() + uint64(size) + uint64(l.latency),
		}
		l.n++
		l.cFlits.Add(int64(size))
		l.cPkts.Inc()
	}
	// Empty, the link offers nothing until an input arrives.
	if l.n == 0 {
		l.Sleep()
	}
}

func init() {
	core.Register(&core.Template{
		Name: "ccl.link",
		Doc:  "point-to-point channel with latency and flit serialization",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewLink(name, p)
		},
	})
}
