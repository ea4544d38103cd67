package mpl

import (
	core "liberty/internal/core"
)

// TraceCore is a blocking processor model that issues a scripted sequence
// of memory references, one outstanding at a time, with optional think
// time between them — the workload driver for coherence and ordering
// studies (standing in for RSIM-style detailed cores).
//
// Ports: "req" (Out, MemRef), "resp" (In, MemReply).
type TraceCore struct {
	core.Base
	Req  *core.Port
	Resp *core.Port

	refs    []MemRef
	think   int
	pos     int
	waiting bool
	nextAt  uint64

	// Loads records every load reply in issue order.
	Loads []uint32

	cDone    *core.Counter
	hLat     *core.Histogram
	issuedAt uint64
}

// NewTraceCore constructs a core that issues refs in order with think
// idle cycles between completion and the next issue.
func NewTraceCore(name string, refs []MemRef, think int) *TraceCore {
	c := &TraceCore{refs: refs, think: think}
	c.Init(name, c)
	c.cDone = c.Counter("completed")
	c.hLat = c.Histogram("latency")
	c.Req = c.AddOutPort("req", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	c.Resp = c.AddInPort("resp", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	c.OnCycleStart(c.cycleStart)
	c.OnCycleEnd(c.cycleEnd)
	c.MarkSequential() // req is offered from the script and the clock at cycle start; resp takes the engine's default ack
	return c
}

// Done reports whether every reference has completed.
func (c *TraceCore) Done() bool { return c.pos >= len(c.refs) && !c.waiting }

// Completed returns the number of finished references.
func (c *TraceCore) Completed() int {
	n := c.pos
	if c.waiting {
		n--
	}
	return n
}

// MeanLatency returns the average reference completion latency.
func (c *TraceCore) MeanLatency() float64 {
	return c.hLat.Mean()
}

func (c *TraceCore) cycleStart() {
	if !c.waiting && c.pos < len(c.refs) && c.Now() >= c.nextAt {
		c.Req.Send(0, c.refs[c.pos])
		c.Req.Enable(0)
	} else {
		c.Req.SendNothing(0)
		c.Req.Disable(0)
	}
}

func (c *TraceCore) cycleEnd() {
	if c.Req.Transferred(0) && !c.waiting {
		c.waiting = true
		c.issuedAt = c.Now()
		c.pos++
	}
	if v, ok := c.Resp.TransferredData(0); ok {
		rep := v.(MemReply)
		if !c.refs[c.pos-1].Write {
			c.Loads = append(c.Loads, rep.Data)
		}
		c.waiting = false
		c.nextAt = c.Now() + uint64(c.think) + 1
		c.cDone.Inc()
		c.hLat.Observe(float64(c.Now() - c.issuedAt))
	}
	// Waiting for a reply or done, the core offers nothing until an input
	// arrives.
	if c.waiting || c.pos >= len(c.refs) {
		c.Sleep()
	}
}
