package nilib

import (
	core "liberty/internal/core"
	"liberty/internal/isa"
	"liberty/internal/pcl"
)

// NICCore is the NIC's embedded LibertyRISC processor executing firmware
// against NIC-local memory, with the device register window mapped at
// NICRegBase. It runs up to ipc instructions per simulated cycle.
type NICCore struct {
	core.Base

	emu *isa.CPU
	ipc int
	err error

	cInstrs *core.Counter
}

func newNICCore(name string, emu *isa.CPU, ipc int) *NICCore {
	if ipc < 1 {
		ipc = 1
	}
	c := &NICCore{emu: emu, ipc: ipc}
	c.Init(name, c)
	c.cInstrs = c.Counter("instructions")
	c.OnCycleStart(c.cycleStart)
	return c
}

// Err returns the firmware fault that stopped the core, if any.
func (c *NICCore) Err() error { return c.err }

// Emu exposes the embedded core's architectural state.
func (c *NICCore) Emu() *isa.CPU { return c.emu }

func (c *NICCore) cycleStart() {
	if c.err != nil || c.emu.Halted {
		return
	}
	for i := 0; i < c.ipc && !c.emu.Halted; i++ {
		if _, err := c.emu.StepInst(); err != nil {
			c.err = err
			return
		}
		c.cInstrs.Inc()
	}
}

// DMAEngine moves bytes from NIC-local memory to host memory across the
// host bus, one word per request, pipelined against the bus's queue
// depth. Firmware programs it through the DMA registers; completion is
// observed by polling RegDMAKick.
//
// Ports: "hostreq" (Out, pcl.MemReq), "hostresp" (In, pcl.MemResp).
type DMAEngine struct {
	core.Base
	HostReq  *core.Port
	HostResp *core.Port

	mem  *isa.Memory
	regs *nicRegs

	cur    *dmaReq
	issued uint32 // bytes issued
	acked  uint32 // bytes acknowledged

	cWords *core.Counter
}

func newDMAEngine(name string, mem *isa.Memory, regs *nicRegs) *DMAEngine {
	d := &DMAEngine{mem: mem, regs: regs}
	d.Init(name, d)
	d.cWords = d.Counter("words")
	d.HostReq = d.AddOutPort("hostreq", core.PortOpts{MaxWidth: 1})
	d.HostResp = d.AddInPort("hostresp", core.PortOpts{MaxWidth: 1})
	d.OnCycleStart(d.cycleStart)
	d.OnReact(d.react)
	d.OnCycleEnd(d.cycleEnd)
	d.MarkSequential() // hostreq is offered from the current transfer at cycle start; hostresp is acked from its own lane
	return d
}

func (d *DMAEngine) cycleStart() {
	if d.cur == nil && d.regs.dmaPend != nil {
		d.cur = d.regs.dmaPend
		d.regs.dmaPend = nil
		d.regs.dmaBusy = true
		d.issued, d.acked = 0, 0
		if d.cur.length == 0 {
			d.cur = nil
			d.regs.dmaBusy = false
		}
	}
	if d.HostReq.Width() == 0 {
		return
	}
	if d.cur != nil && d.issued < d.cur.length {
		if d.cur.toNIC {
			// host -> NIC: read host memory; the response lands in NIC
			// memory at cycleEnd.
			d.HostReq.Send(0, pcl.MemReq{
				Op:   pcl.MemRead,
				Addr: d.cur.src + d.issued,
				Tag:  d.issued,
			})
		} else {
			w, _ := d.mem.ReadWord((d.cur.src + d.issued) &^ 3)
			d.HostReq.Send(0, pcl.MemReq{
				Op:   pcl.MemWrite,
				Addr: d.cur.dst + d.issued,
				Data: w,
				Tag:  d.issued,
			})
		}
		d.HostReq.Enable(0)
	} else {
		d.HostReq.SendNothing(0)
		d.HostReq.Disable(0)
	}
}

func (d *DMAEngine) react() {
	if d.HostResp.Width() == 0 || d.HostResp.AckStatus(0).Known() {
		return
	}
	switch d.HostResp.DataStatus(0) {
	case core.Yes:
		d.HostResp.Ack(0)
	case core.No:
		d.HostResp.Nack(0)
	}
}

func (d *DMAEngine) cycleEnd() {
	if d.HostReq.Width() > 0 && d.HostReq.Transferred(0) {
		d.issued += 4
		d.cWords.Inc()
	}
	if d.HostResp.Width() > 0 {
		if v, ok := d.HostResp.TransferredData(0); ok {
			if d.cur != nil && d.cur.toNIC {
				resp := v.(pcl.MemResp)
				off := resp.Tag.(uint32)
				_ = d.mem.WriteWord((d.cur.dst+off)&^3, resp.Data)
			}
			d.acked += 4
		}
	}
	if d.cur != nil && d.issued >= d.cur.length && d.acked >= d.cur.length {
		d.cur = nil
		d.regs.dmaBusy = false
	}
}

// Doorbell drains firmware doorbell writes to the host as event messages.
//
// Port: "event" (Out, uint32 doorbell value).
type Doorbell struct {
	core.Base
	Event *core.Port

	regs *nicRegs

	cRings *core.Counter
}

func newDoorbell(name string, regs *nicRegs) *Doorbell {
	db := &Doorbell{regs: regs}
	db.Init(name, db)
	db.cRings = db.Counter("rings")
	db.Event = db.AddOutPort("event")
	db.OnCycleStart(db.cycleStart)
	db.OnCycleEnd(db.cycleEnd)
	return db
}

// Rings returns the number of doorbells delivered.
func (db *Doorbell) Rings() int64 {
	return db.cRings.Value()
}

func (db *Doorbell) cycleStart() {
	if db.Event.Width() > 0 && len(db.regs.doorbells) > 0 {
		db.Event.Send(0, db.regs.doorbells[0])
		db.Event.Enable(0)
	}
	db.Event.Idle()
}

func (db *Doorbell) cycleEnd() {
	if db.Event.Width() > 0 && db.Event.Transferred(0) {
		db.regs.doorbells = db.regs.doorbells[1:]
		db.cRings.Inc()
	}
	// With no event port connected (partial specification), doorbells
	// are still counted and drained so the firmware never wedges.
	if db.Event.Width() == 0 && len(db.regs.doorbells) > 0 {
		db.regs.doorbells = db.regs.doorbells[:0]
		db.cRings.Inc()
	}
}

// HostCmdIn feeds host transmit commands into the device register file.
//
// Port: "hostcmd" (In, TxCmd).
type HostCmdIn struct {
	core.Base
	Cmd *core.Port

	regs *nicRegs
}

func newHostCmdIn(name string, regs *nicRegs) *HostCmdIn {
	h := &HostCmdIn{regs: regs}
	h.Init(name, h)
	h.Cmd = h.AddInPort("hostcmd", core.PortOpts{DefaultAck: core.No})
	h.OnReact(h.react)
	h.OnCycleEnd(h.cycleEnd)
	return h
}

func (h *HostCmdIn) react() {
	for i := 0; i < h.Cmd.Width(); i++ {
		if h.Cmd.AckStatus(i).Known() {
			continue
		}
		switch h.Cmd.DataStatus(i) {
		case core.Yes:
			if len(h.regs.hostCmds) < 8 {
				h.Cmd.Ack(i)
			} else {
				h.Cmd.Nack(i)
			}
		case core.No:
			h.Cmd.Nack(i)
		}
	}
}

func (h *HostCmdIn) cycleEnd() {
	for i := 0; i < h.Cmd.Width(); i++ {
		if v, ok := h.Cmd.TransferredData(i); ok {
			h.regs.hostCmds = append(h.regs.hostCmds, v.(TxCmd))
		}
	}
}
