package nilib

import (
	"fmt"

	core "liberty/internal/core"
	"liberty/internal/isa"
)

// RxRingBase is where the MAC's receive ring lives in NIC-local memory.
const RxRingBase = 0x0000_4000

// RxSlotBytes is the size of one receive ring slot.
const RxSlotBytes = 2048

// MAC is the media-access assist engine: arriving frames are serialized
// off the wire at the configured wire bandwidth, deposited into NIC-local
// memory, and advertised to the firmware through the rx registers;
// firmware-queued transmissions are read back out of NIC memory and
// serialized onto the wire.
//
// Ports: "wire" (In, *Frame), "wireout" (Out, *Frame).
type MAC struct {
	core.Base
	Wire    *core.Port
	WireOut *core.Port

	mem   *isa.Memory
	regs  *nicRegs
	bpc   int // wire bytes per cycle
	slots int

	nextSlot   int
	rxBusyTill uint64
	rxPending  *rxDesc
	rxReadyAt  uint64
	txBusyTill uint64
	txCur      *Frame

	cRxFrames *core.Counter
	cRxBytes  *core.Counter
	cRxDrop   *core.Counter
	cTxFrames *core.Counter
	cBadFrame *core.Counter
}

func newMAC(name string, mem *isa.Memory, regs *nicRegs, bytesPerCycle, slots int) *MAC {
	m := &MAC{mem: mem, regs: regs, bpc: bytesPerCycle, slots: slots}
	m.Init(name, m)
	m.cRxFrames = m.Counter("rx_frames")
	m.cRxBytes = m.Counter("rx_bytes")
	m.cRxDrop = m.Counter("rx_dropped")
	m.cTxFrames = m.Counter("tx_frames")
	m.cBadFrame = m.Counter("bad_frames")
	m.Wire = m.AddInPort("wire", core.PortOpts{MaxWidth: 1, DefaultAck: core.No})
	m.WireOut = m.AddOutPort("wireout")
	m.OnCycleStart(m.cycleStart)
	m.OnReact(m.react)
	m.OnCycleEnd(m.cycleEnd)
	m.MarkSequential() // wireout is offered from the tx frame at cycle start; wire is acked from its own lane and the rx state
	return m
}

func (m *MAC) cycleStart() {
	// A fully received frame becomes visible to the firmware.
	if m.rxPending != nil && m.Now() >= m.rxReadyAt {
		m.regs.rxQ = append(m.regs.rxQ, *m.rxPending)
		m.rxPending = nil
	}
	// Transmit path: pick up a firmware tx descriptor when idle.
	if m.WireOut.Width() > 0 {
		if m.txCur == nil && len(m.regs.txQ) > 0 && m.Now() >= m.txBusyTill {
			d := m.regs.txQ[0]
			m.regs.txQ = m.regs.txQ[1:]
			wire := m.mem.ReadBytes(d.addr, int(d.len))
			f, err := Unmarshal(wire)
			if err != nil {
				m.cBadFrame.Inc()
			} else {
				m.txCur = f
				m.txBusyTill = m.Now() + uint64(len(wire)/m.bpc+1)
			}
		}
		if m.txCur != nil && m.WireOut.Width() > 0 && m.Now() >= m.txBusyTill {
			m.WireOut.Send(0, m.txCur)
			m.WireOut.Enable(0)
		}
		m.WireOut.Idle()
	}
}

func (m *MAC) freeSlots() int {
	used := len(m.regs.rxQ)
	if m.rxPending != nil {
		used++
	}
	return m.regs.rxSlotCap - used
}

func (m *MAC) react() {
	if m.Wire.Width() == 0 || m.Wire.AckStatus(0).Known() {
		return
	}
	switch m.Wire.DataStatus(0) {
	case core.Yes:
		if m.Now() >= m.rxBusyTill && m.rxPending == nil && m.freeSlots() > 0 {
			m.Wire.Ack(0)
		} else {
			m.Wire.Nack(0)
		}
	case core.No:
		m.Wire.Nack(0)
	}
}

func (m *MAC) cycleEnd() {
	if m.WireOut.Width() > 0 && m.txCur != nil && m.WireOut.Transferred(0) {
		m.txCur = nil
		m.cTxFrames.Inc()
	}
	if m.Wire.Width() == 0 {
		return
	}
	v, ok := m.Wire.TransferredData(0)
	if !ok {
		return
	}
	f, ok := v.(*Frame)
	if !ok {
		panic(&core.ContractError{Op: "mac rx", Where: m.Name(),
			Detail: fmt.Sprintf("expected *nilib.Frame, got %T", v)})
	}
	wire, err := f.Marshal()
	if err != nil {
		m.cBadFrame.Inc()
		return
	}
	slot := m.nextSlot
	m.nextSlot = (m.nextSlot + 1) % m.slots
	addr := uint32(RxRingBase + slot*RxSlotBytes)
	m.mem.LoadBytes(addr, wire)
	serial := uint64(len(wire)/m.bpc + 1)
	m.rxBusyTill = m.Now() + serial
	m.rxReadyAt = m.Now() + serial
	m.rxPending = &rxDesc{addr: addr, len: uint32(len(wire)), slot: slot}
	m.cRxFrames.Inc()
	m.cRxBytes.Add(int64(len(wire)))
}
