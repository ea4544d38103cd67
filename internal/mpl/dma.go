package mpl

import (
	core "liberty/internal/core"
	"liberty/internal/pcl"
)

// DMADesc describes one DMA transfer: Len bytes (word-granular) copied
// from Src to Dst in the memory the controller's req port reaches.
type DMADesc struct {
	Src, Dst uint32
	Len      uint32
	Tag      any
}

// DMADone announces a completed descriptor.
type DMADone struct {
	Desc DMADesc
}

// DMACtrl is a word-at-a-time copy engine with a descriptor queue — the
// MPL component behind low-overhead message passing. It reads Src words
// through its memory port and writes them to Dst, then emits a completion
// message (the "interrupt").
//
// Ports: "desc" (In, DMADesc), "memreq" (Out, pcl.MemReq), "memresp" (In,
// pcl.MemResp), "done" (Out, DMADone).
type DMACtrl struct {
	core.Base
	Desc    *core.Port
	MemReq  *core.Port
	MemResp *core.Port
	DonePrt *core.Port

	queue    []DMADesc
	offset   uint32 // next byte offset to read within queue[0]
	waiting  bool   // a memory request is outstanding
	readVal  uint32
	havRead  bool
	written  uint32 // bytes written so far
	donePend *DMADone

	cCopied *core.Counter
	cDescs  *core.Counter
}

// NewDMACtrl constructs a DMA controller.
func NewDMACtrl(name string) *DMACtrl {
	d := &DMACtrl{}
	d.Init(name, d)
	d.cCopied = d.Counter("bytes_copied")
	d.cDescs = d.Counter("descriptors")
	d.Desc = d.AddInPort("desc", core.PortOpts{MaxWidth: 1, DefaultAck: core.No})
	d.MemReq = d.AddOutPort("memreq", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	d.MemResp = d.AddInPort("memresp", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	d.DonePrt = d.AddOutPort("done")
	d.OnCycleStart(d.cycleStart)
	d.OnReact(d.react)
	d.OnCycleEnd(d.cycleEnd)
	d.MarkSequential() // memreq and done are offered from the head descriptor at cycle start; desc is acked from its own lane and the queue, memresp from its own lane
	return d
}

// Busy reports whether transfers are queued or in progress.
func (d *DMACtrl) Busy() bool { return len(d.queue) > 0 || d.donePend != nil }

// Copied returns the number of bytes copied so far.
func (d *DMACtrl) Copied() int64 {
	return d.cCopied.Value()
}

func (d *DMACtrl) cycleStart() {
	// Completion notification.
	if d.donePend == nil {
		d.DonePrt.Idle()
	} else {
		for j := 0; j < d.DonePrt.Width(); j++ {
			d.DonePrt.Send(j, *d.donePend)
			d.DonePrt.Enable(j)
		}
	}
	// Memory activity for the head descriptor.
	if len(d.queue) > 0 && !d.waiting && d.donePend == nil {
		cur := d.queue[0]
		if d.havRead {
			d.MemReq.Send(0, pcl.MemReq{Op: pcl.MemWrite, Addr: cur.Dst + d.written, Data: d.readVal})
			d.MemReq.Enable(0)
			return
		}
		if d.offset < cur.Len {
			d.MemReq.Send(0, pcl.MemReq{Op: pcl.MemRead, Addr: cur.Src + d.offset})
			d.MemReq.Enable(0)
			return
		}
	}
	d.MemReq.SendNothing(0)
	d.MemReq.Disable(0)
}

func (d *DMACtrl) react() {
	if !d.Desc.AckStatus(0).Known() {
		switch d.Desc.DataStatus(0) {
		case core.Yes:
			if len(d.queue) < 4 {
				d.Desc.Ack(0)
			} else {
				d.Desc.Nack(0)
			}
		case core.No:
			d.Desc.Nack(0)
		}
	}
	if !d.MemResp.AckStatus(0).Known() {
		switch d.MemResp.DataStatus(0) {
		case core.Yes:
			d.MemResp.Ack(0)
		case core.No:
			d.MemResp.Nack(0)
		}
	}
}

func (d *DMACtrl) cycleEnd() {
	if d.donePend != nil {
		delivered := d.DonePrt.Width() == 0 // nowhere to deliver: drop
		for j := 0; j < d.DonePrt.Width(); j++ {
			if d.DonePrt.Transferred(j) {
				delivered = true
			}
		}
		if delivered {
			d.donePend = nil
		}
	}
	if d.MemReq.Transferred(0) {
		d.waiting = true
	}
	if v, ok := d.MemResp.TransferredData(0); ok {
		resp := v.(pcl.MemResp)
		d.waiting = false
		cur := &d.queue[0]
		if d.havRead {
			// The write completed.
			d.havRead = false
			d.written += 4
			d.cCopied.Add(4)
			if d.written >= cur.Len {
				d.donePend = &DMADone{Desc: *cur}
				d.queue = d.queue[1:]
				d.offset = 0
				d.written = 0
				d.cDescs.Inc()
			}
		} else {
			d.readVal = resp.Data
			d.havRead = true
			d.offset += 4
		}
	}
	if v, ok := d.Desc.TransferredData(0); ok {
		d.queue = append(d.queue, v.(DMADesc))
	}
}
