package nilib

import (
	core "liberty/internal/core"
	"liberty/internal/isa"
)

// FirmwareRxForward is the default NIC firmware: for every received
// frame, DMA it into the next slot of a 32-slot host ring and ring the
// host doorbell with the ring index. It is genuine lr32 assembly run by
// the embedded core — the paper's "level of detail sufficient to simulate
// the firmware".
const FirmwareRxForward = `
# rx-forward firmware for the programmable NIC
        .text
main:   li   s0, 0xff000000    # device register window
        li   s1, 0             # host ring index
        li   s2, 2048          # host slot bytes
        li   s3, 32            # host ring slots
loop:   lw   t0, 0(s0)         # RX_STATUS: frames waiting?
        blez t0, loop
        lw   t1, 4(s0)         # RX_ADDR
        lw   t2, 8(s0)         # RX_LEN
        sw   t1, 16(s0)        # DMA_SRC
        rem  t4, s1, s3
        mul  t4, t4, s2
        sw   t4, 20(s0)        # DMA_DST = slot * 2048
        sw   t2, 24(s0)        # DMA_LEN
        sw   t0, 28(s0)        # DMA_KICK
wait:   lw   t5, 28(s0)        # poll busy
        bgtz t5, wait
        sw   t0, 12(s0)        # RX_POP
        sw   s1, 32(s0)        # HOST_DB <- ring index
        addi s1, s1, 1
        b    loop
`

// FirmwareRxEcho receives frames, transmits them back out of the wire
// unchanged, and rings the doorbell — a loopback load generator.
const FirmwareRxEcho = `
# rx-echo firmware
        .text
main:   li   s0, 0xff000000
        li   s1, 0
loop:   lw   t0, 0(s0)         # RX_STATUS
        blez t0, loop
txw:    lw   t3, 44(s0)        # TX_SEND space?
        blez t3, txw
        lw   t1, 4(s0)         # RX_ADDR
        lw   t2, 8(s0)         # RX_LEN
        sw   t1, 36(s0)        # TX_ADDR
        sw   t2, 40(s0)        # TX_LEN
        sw   t0, 44(s0)        # TX_SEND
        sw   t0, 12(s0)        # RX_POP
        sw   s1, 32(s0)        # HOST_DB
        addi s1, s1, 1
        b    loop
`

// FirmwareTxFromHost services host transmit commands: DMA the frame from
// host memory into a NIC staging buffer, queue it at the MAC, pop the
// command, ring the doorbell.
const FirmwareTxFromHost = `
# tx-from-host firmware
        .text
main:   li   s0, 0xff000000
        li   s1, 0
        li   s2, 0x2000        # staging buffer in NIC memory
loop:   lw   t0, 52(s0)        # HOSTCMD count
        blez t0, loop
        lw   t1, 56(s0)        # host buffer address
        lw   t2, 60(s0)        # length
        li   t3, 1
        sw   t3, 64(s0)        # DMA direction: host -> NIC
        sw   t1, 16(s0)        # DMA_SRC (host)
        sw   s2, 20(s0)        # DMA_DST (staging)
        sw   t2, 24(s0)        # DMA_LEN
        sw   t0, 28(s0)        # DMA_KICK
wait:   lw   t5, 28(s0)
        bgtz t5, wait
        sw   r0, 64(s0)        # direction back to NIC -> host
txw:    lw   t6, 44(s0)        # TX queue space?
        blez t6, txw
        sw   s2, 36(s0)        # TX_ADDR
        sw   t2, 40(s0)        # TX_LEN
        sw   t0, 44(s0)        # TX_SEND
        sw   t0, 52(s0)        # pop the host command
        sw   s1, 32(s0)        # doorbell: tx completion
        addi s1, s1, 1
        b    loop
`

// NICCfg configures the programmable NIC.
type NICCfg struct {
	// Firmware is lr32 assembly source (default FirmwareRxForward).
	Firmware string
	// CoreIPC is firmware instructions per simulated cycle (default 1;
	// raise to model a faster embedded clock).
	CoreIPC int
	// RxSlots is the MAC receive ring depth (default 16).
	RxSlots int
	// TxSlots is the transmit queue depth (default 8).
	TxSlots int
	// WireBytesPerCycle models wire bandwidth (default 4).
	WireBytesPerCycle int
}

// NIC is the Tigon-2-like programmable network interface composite: MAC +
// embedded firmware core + DMA engine + doorbell + host command queue,
// sharing NIC-local memory and a device register file.
//
// Exported ports: "wire" (In, *Frame), "wireout" (Out, *Frame),
// "hostreq" (Out, pcl.MemReq), "hostresp" (In, pcl.MemResp),
// "event" (Out, uint32 doorbell values), "hostcmd" (In, TxCmd).
type NIC struct {
	core.Composite

	Mac   *MAC
	Core  *NICCore
	DMA   *DMAEngine
	Bell  *Doorbell
	HCmds *HostCmdIn

	regs *nicRegs
	mem  *isa.Memory
}

// NewNIC builds a programmable NIC into b.
func NewNIC(b *core.Builder, name string, cfg NICCfg) (*NIC, error) {
	if cfg.Firmware == "" {
		cfg.Firmware = FirmwareRxForward
	}
	if cfg.CoreIPC <= 0 {
		cfg.CoreIPC = 1
	}
	if cfg.RxSlots <= 0 {
		cfg.RxSlots = 16
	}
	if cfg.TxSlots <= 0 {
		cfg.TxSlots = 8
	}
	if cfg.WireBytesPerCycle <= 0 {
		cfg.WireBytesPerCycle = 4
	}
	prog, err := isa.Assemble(cfg.Firmware)
	if err != nil {
		return nil, err
	}
	n := &NIC{
		regs: &nicRegs{rxSlotCap: cfg.RxSlots, txCap: cfg.TxSlots},
	}
	n.Init(name, n)

	emu := isa.NewCPU()
	n.mem = emu.Mem
	prog.LoadInto(n.mem)
	emu.Reset(prog.Entry)
	if err := n.mem.MapMMIO(NICRegBase, RegWindowBytes, mmio{r: n.regs}); err != nil {
		return nil, err
	}

	n.Mac = newMAC(core.Sub(name, "mac"), n.mem, n.regs, cfg.WireBytesPerCycle, cfg.RxSlots)
	n.Core = newNICCore(core.Sub(name, "core"), emu, cfg.CoreIPC)
	n.regs.cycle = n.Core.Now
	n.DMA = newDMAEngine(core.Sub(name, "dma"), n.mem, n.regs)
	n.Bell = newDoorbell(core.Sub(name, "bell"), n.regs)
	n.HCmds = newHostCmdIn(core.Sub(name, "hostcmd"), n.regs)

	for _, inst := range []core.Instance{n.Mac, n.Core, n.DMA, n.Bell, n.HCmds} {
		b.Add(inst)
		n.AddChild(inst)
	}
	n.Export("wire", n.Mac.Wire)
	n.Export("wireout", n.Mac.WireOut)
	n.Export("hostreq", n.DMA.HostReq)
	n.Export("hostresp", n.DMA.HostResp)
	n.Export("event", n.Bell.Event)
	n.Export("hostcmd", n.HCmds.Cmd)
	return n, nil
}

// Mem exposes NIC-local memory (tests and debugging).
func (n *NIC) Mem() *isa.Memory { return n.mem }

// FramesReceived returns the MAC's received-frame count.
func (n *NIC) FramesReceived() int64 {
	return n.Mac.cRxFrames.Value()
}

// Delivered returns the number of doorbells rung (frames handed to the
// host by the default firmware).
func (n *NIC) Delivered() int64 { return n.Bell.Rings() }
