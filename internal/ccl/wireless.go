package ccl

import (
	"fmt"

	core "liberty/internal/core"
)

// Wireless is a shared broadcast medium for sensor-network models: radios
// contend for the air each cycle, a single winner's packet propagates to
// its destination radio after the air time (Size flits ≙ symbols), and
// simultaneous offers collide (all contenders are refused and must back
// off and retry). Optional random loss models a noisy channel.
//
// Ports:
//
//	in  (In,  width = radios) — transmit from radio i
//	out (Out, width = radios) — receive at radio i
type Wireless struct {
	core.Base
	In  *core.Port
	Out *core.Port

	lossProb float64
	csma     bool
	lastWin  int
	airUntil uint64
	// inflight is the one frame on the air (pkt nil when the air is
	// clear): react grants only while it is empty.
	inflight wirelessEntry
	collided bool

	cSent      *core.Counter
	cCollision *core.Counter
	cLost      *core.Counter
}

type wirelessEntry struct {
	pkt   *Packet
	ready uint64
}

// NewWireless constructs a shared wireless channel. Parameters:
//
//	loss (float, default 0)    — probability a granted transmission is lost
//	mac  (string, default "aloha") — "aloha": simultaneous offers collide
//	     and everyone loses the slot; "csma": carrier-sense arbitration
//	     grants one contender round-robin (contention still counted)
func NewWireless(name string, p core.Params) (*Wireless, error) {
	w := &Wireless{lossProb: p.Float("loss", 0), lastWin: -1}
	switch mac := p.Str("mac", "aloha"); mac {
	case "aloha":
	case "csma":
		w.csma = true
	default:
		return nil, &core.ParamError{Param: "mac", Detail: "must be \"aloha\" or \"csma\""}
	}
	if w.lossProb < 0 || w.lossProb > 1 {
		return nil, &core.ParamError{Param: "loss", Detail: "must be in [0,1]"}
	}
	w.Init(name, w)
	w.cSent = w.Counter("sent")
	w.cCollision = w.Counter("collisions")
	w.cLost = w.Counter("lost")
	w.In = w.AddInPort("in", core.PortOpts{MinWidth: 1, DefaultAck: core.No})
	w.Out = w.AddOutPort("out", core.PortOpts{MinWidth: 1})
	w.OnCycleStart(w.cycleStart)
	w.OnReact(w.react)
	w.OnCycleEnd(w.cycleEnd)
	w.MarkSequential() // out is offered from the frame on the air at cycle start; in is acked from in's own lanes and the air's state
	return w, nil
}

// Collisions returns the number of collision events observed.
func (w *Wireless) Collisions() int64 {
	return w.cCollision.Value()
}

func (w *Wireless) cycleStart() {
	n := w.Out.Width()
	if pkt := w.inflight.pkt; pkt != nil && w.Now() >= w.inflight.ready {
		if pkt.Dst >= 0 && pkt.Dst < n {
			w.Out.IdleLanes(0, pkt.Dst)
			w.Out.Send(pkt.Dst, pkt)
			w.Out.Enable(pkt.Dst)
			w.Out.IdleLanes(pkt.Dst+1, n)
			return
		}
	}
	w.Out.Idle()
}

func (w *Wireless) react() {
	// Wait until every radio's offer is known, then grant at most one:
	// exactly one offer while the air is free wins; two or more collide
	// and all lose the slot.
	n := w.In.Width()
	offers, settled := w.In.CountOffers()
	if !settled {
		return
	}
	busy := w.Now() < w.airUntil || w.inflight.pkt != nil
	if !busy && (offers == 1 || (w.csma && offers > 1)) {
		// The sole offer wins; carrier-sense arbitration picks round-robin
		// among several contenders.
		winner := w.In.NextOffered((w.lastWin + 1) % n)
		if winner < 0 {
			winner = w.In.NextOffered(0)
		}
		w.In.NackLanes(0, winner)
		if !w.In.AckStatus(winner).Known() {
			w.In.Ack(winner)
		}
		w.In.NackLanes(winner+1, n)
	} else {
		w.In.NackRest()
	}
	w.collided = offers > 1 && !busy
}

func (w *Wireless) cycleEnd() {
	if w.collided {
		w.cCollision.Inc()
		w.collided = false
	}
	if pkt := w.inflight.pkt; pkt != nil && w.Out.Width() > pkt.Dst && w.Out.Transferred(pkt.Dst) {
		w.inflight = wirelessEntry{}
	}
	for i := w.In.NextTransferred(0); i >= 0; i = w.In.NextTransferred(i + 1) {
		w.lastWin = i
		pkt, ok := w.In.Data(i).(*Packet)
		if !ok {
			panic(&core.ContractError{Op: "wireless transmit", Where: w.Name(),
				Detail: fmt.Sprintf("expected *ccl.Packet, got %T", w.In.Data(i))})
		}
		size := pkt.Size
		if size < 1 {
			size = 1
		}
		w.airUntil = w.Now() + uint64(size)
		if w.lossProb > 0 && w.Rand().Float64() < w.lossProb {
			w.cLost.Inc()
			continue // vanished into the ether
		}
		if pkt.Dst < 0 || pkt.Dst >= w.Out.Width() {
			panic(&core.ContractError{Op: "wireless transmit", Where: w.Name(),
				Detail: fmt.Sprintf("packet destination %d out of range (radios=%d)", pkt.Dst, w.Out.Width())})
		}
		w.cSent.Inc()
		w.inflight = wirelessEntry{pkt: pkt, ready: w.Now() + uint64(size)}
	}
}

func init() {
	core.Register(&core.Template{
		Name: "ccl.wireless",
		Doc:  "shared collision-prone broadcast medium",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewWireless(name, p)
		},
	})
}
