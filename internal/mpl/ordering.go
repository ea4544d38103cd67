package mpl

import (
	"fmt"

	core "liberty/internal/core"
)

// OrderingKind selects a memory consistency controller.
type OrderingKind uint8

const (
	// SC is sequential consistency: one reference at a time, program
	// order, no reordering observable.
	SC OrderingKind = iota
	// TSO is total store order: stores drain from a FIFO store buffer
	// while younger loads bypass them (with store-to-load forwarding) —
	// the reordering x86-class machines allow.
	TSO
)

func (k OrderingKind) String() string {
	if k == SC {
		return "SC"
	}
	return "TSO"
}

// OrderingCtrl sits between a core and its cache controller and restricts
// (or permits) reordering according to the selected consistency model —
// the paper's "pluggable memory ordering controllers".
//
// Ports: "cpu" (In, MemRef from the core), "resp" (Out, MemReply to the
// core), "mem" (Out, MemRef to the cache controller), "memresp" (In,
// MemReply from the cache controller).
type OrderingCtrl struct {
	core.Base
	CPU     *core.Port
	Resp    *core.Port
	Mem     *core.Port
	MemResp *core.Port

	kind    OrderingKind
	sbCap   int
	sbDelay int // extra cycles a store lingers before draining (models write latency aggregation)

	storeBuf []MemRef
	sbReady  uint64  // cycle the head store may issue
	inflight *MemRef // reference outstanding at the cache controller
	pendLoad *MemRef // load awaiting issue (TSO) or in flight reply routing
	reply    *MemReply

	cFwd    *core.Counter
	cDrains *core.Counter
}

// NewOrderingCtrl constructs an ordering controller. sbCap bounds the TSO
// store buffer (ignored for SC); sbDelay makes store visibility lazy,
// widening the TSO reordering window.
func NewOrderingCtrl(name string, kind OrderingKind, sbCap, sbDelay int) *OrderingCtrl {
	if sbCap <= 0 {
		sbCap = 8
	}
	o := &OrderingCtrl{kind: kind, sbCap: sbCap, sbDelay: sbDelay}
	o.Init(name, o)
	o.cFwd = o.Counter("forwards")
	o.cDrains = o.Counter("drains")
	o.CPU = o.AddInPort("cpu", core.PortOpts{MinWidth: 1, MaxWidth: 1, DefaultAck: core.No})
	o.Resp = o.AddOutPort("resp", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	o.Mem = o.AddOutPort("mem", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	o.MemResp = o.AddInPort("memresp", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	o.OnCycleStart(o.cycleStart)
	o.OnReact(o.react)
	o.OnCycleEnd(o.cycleEnd)
	o.MarkSequential() // resp and mem are offered from the reply, the pending load and the store buffer at cycle start; cpu is acked from its own lane and that state, memresp from its own lane
	return o
}

// StoreBufOccupancy returns the number of buffered stores (TSO).
func (o *OrderingCtrl) StoreBufOccupancy() int { return len(o.storeBuf) }

func (o *OrderingCtrl) cycleStart() {
	// Reply to the core.
	if o.reply != nil {
		o.Resp.Send(0, *o.reply)
		o.Resp.Enable(0)
	} else {
		o.Resp.SendNothing(0)
		o.Resp.Disable(0)
	}
	// Issue to the cache controller: a pending load takes priority over
	// draining stores (loads bypass stores — the TSO relaxation); under
	// SC there is never both.
	switch {
	case o.inflight != nil:
		o.Mem.SendNothing(0)
		o.Mem.Disable(0)
	case o.pendLoad != nil:
		o.Mem.Send(0, *o.pendLoad)
		o.Mem.Enable(0)
	case len(o.storeBuf) > 0 && o.Now() >= o.sbReady:
		o.Mem.Send(0, o.storeBuf[0])
		o.Mem.Enable(0)
	default:
		o.Mem.SendNothing(0)
		o.Mem.Disable(0)
	}
}

func (o *OrderingCtrl) acceptable(ref MemRef) bool {
	switch o.kind {
	case SC:
		// One reference at a time, strictly in order.
		return o.inflight == nil && o.pendLoad == nil && len(o.storeBuf) == 0 && o.reply == nil
	default: // TSO
		if ref.Write {
			return len(o.storeBuf) < o.sbCap && o.reply == nil
		}
		return o.pendLoad == nil && o.reply == nil
	}
}

func (o *OrderingCtrl) react() {
	if !o.CPU.AckStatus(0).Known() {
		switch o.CPU.DataStatus(0) {
		case core.Yes:
			if o.acceptable(o.CPU.Data(0).(MemRef)) {
				o.CPU.Ack(0)
			} else {
				o.CPU.Nack(0)
			}
		case core.No:
			o.CPU.Nack(0)
		}
	}
	if !o.MemResp.AckStatus(0).Known() {
		switch o.MemResp.DataStatus(0) {
		case core.Yes:
			o.MemResp.Ack(0)
		case core.No:
			o.MemResp.Nack(0)
		}
	}
}

func (o *OrderingCtrl) cycleEnd() {
	if o.reply != nil && o.Resp.Transferred(0) {
		o.reply = nil
	}
	if o.Mem.Transferred(0) {
		switch {
		case o.pendLoad != nil:
			o.inflight = o.pendLoad
			o.pendLoad = nil
		case len(o.storeBuf) > 0:
			ref := o.storeBuf[0]
			o.inflight = &ref
			o.storeBuf = o.storeBuf[1:]
			o.sbReady = o.Now() + uint64(o.sbDelay) + 1
			o.cDrains.Inc()
		}
	}
	if v, ok := o.MemResp.TransferredData(0); ok {
		rep := v.(MemReply)
		if o.inflight == nil {
			panic(&core.ContractError{Op: "mem reply", Where: o.Name(),
				Detail: fmt.Sprintf("unexpected reply %+v", rep)})
		}
		if !o.inflight.Write || o.kind == SC {
			// Loads always reply to the core; SC stores reply at
			// completion too (TSO stores were acknowledged when
			// buffered).
			rep.Tag = o.inflight.Tag
			o.reply = &rep
		}
		o.inflight = nil
	}
	if v, ok := o.CPU.TransferredData(0); ok {
		ref := v.(MemRef)
		if o.kind == TSO && ref.Write {
			// Store: buffered, acknowledged to the core immediately.
			o.storeBuf = append(o.storeBuf, ref)
			if len(o.storeBuf) == 1 {
				o.sbReady = o.Now() + uint64(o.sbDelay) + 1
			}
			o.reply = &MemReply{Addr: ref.Addr, Data: ref.Data, Tag: ref.Tag}
			return
		}
		if o.kind == TSO && !ref.Write {
			// Store-to-load forwarding from the newest matching store.
			for i := len(o.storeBuf) - 1; i >= 0; i-- {
				if o.storeBuf[i].Addr&^3 == ref.Addr&^3 {
					o.reply = &MemReply{Addr: ref.Addr, Data: o.storeBuf[i].Data, Tag: ref.Tag}
					o.cFwd.Inc()
					return
				}
			}
		}
		o.pendLoad = &ref
	}
}
