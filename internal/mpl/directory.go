package mpl

import (
	"fmt"
	"sort"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/upl"
)

// dirMsgSize returns a message's size in flits: control messages are one
// flit, data-bearing messages carry a cache line.
func dirMsgSize(k DirKind) int {
	switch k {
	case DirData, DirRecallAck, DirWB:
		return 4
	}
	return 1
}

// toHome reports whether a message kind is addressed to a node's
// directory-home controller (as opposed to its L1 controller).
func toHome(k DirKind) bool {
	switch k {
	case GetS, GetM, DirInvAck, DirRecallAck, DirWB:
		return true
	}
	return false
}

// netOutMixin serializes outgoing DirMsgs onto a width-1 network port.
type netOutMixin struct {
	outQ []DirMsg
}

func (n *netOutMixin) push(m DirMsg) { n.outQ = append(n.outQ, m) }

func (n *netOutMixin) offer(port *core.Port, now uint64) {
	if len(n.outQ) > 0 {
		m := n.outQ[0]
		port.Send(0, &ccl.Packet{
			ID:       uint64(m.From)<<48 | uint64(now),
			Src:      m.From,
			Dst:      m.To,
			Size:     dirMsgSize(m.Kind),
			Injected: now,
			Payload:  m,
		})
		port.Enable(0)
	} else {
		port.SendNothing(0)
		port.Disable(0)
	}
}

func (n *netOutMixin) retire(port *core.Port) {
	if port.Transferred(0) {
		n.outQ = n.outQ[1:]
	}
}

// L1Dir is a node's L1 cache + directory-protocol controller: misses
// become GetS/GetM messages to the line's home node over the real CCL
// network; invalidations and recalls from remote homes are answered even
// while a miss is outstanding.
//
// Ports: "cpu" (In, MemRef), "resp" (Out, MemReply), "net" (Out,
// *ccl.Packet), "netin" (In, *ccl.Packet).
type L1Dir struct {
	core.Base
	netOutMixin
	CPU   *core.Port
	Resp  *core.Port
	Net   *core.Port
	NetIn *core.Port

	id     int
	nnodes int
	cache  *upl.Cache
	image  *MemImage
	values map[uint32]uint32
	hitLat int

	cur     *MemRef
	waiting bool
	reply   *MemReply
	replyAt uint64

	cHits, cMisses, cInvs, cRecalls *core.Counter
}

// NewL1Dir constructs node id's L1 controller in an nnodes-node system.
func NewL1Dir(name string, id, nnodes int, cacheCfg upl.CacheCfg, image *MemImage) (*L1Dir, error) {
	if cacheCfg.Sets == 0 {
		cacheCfg = upl.DefaultL1()
	}
	cache, err := upl.NewCache(cacheCfg)
	if err != nil {
		return nil, err
	}
	l := &L1Dir{id: id, nnodes: nnodes, cache: cache, image: image,
		values: make(map[uint32]uint32), hitLat: 1}
	l.Init(name, l)
	l.cHits = l.Counter("hits")
	l.cMisses = l.Counter("misses")
	l.cInvs = l.Counter("invalidations")
	l.cRecalls = l.Counter("recalls")
	l.CPU = l.AddInPort("cpu", core.PortOpts{MaxWidth: 1, DefaultAck: core.No})
	l.Resp = l.AddOutPort("resp", core.PortOpts{MaxWidth: 1})
	l.Net = l.AddOutPort("net", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	l.NetIn = l.AddInPort("netin", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	l.OnCycleStart(l.cycleStart)
	l.OnReact(l.react)
	l.OnCycleEnd(l.cycleEnd)
	l.MarkSequential() // resp and net are offered from the reply and the message queue at cycle start; cpu is acked from its own lane and cur, netin from its own lane
	return l, nil
}

// Cache exposes line states for invariant checks.
func (l *L1Dir) Cache() *upl.Cache { return l.cache }

func (l *L1Dir) lineBase(addr uint32) uint32 {
	return addr &^ (uint32(l.cache.Cfg().LineBytes) - 1)
}

func (l *L1Dir) flushLine(addr uint32) {
	base := l.lineBase(addr)
	for off := uint32(0); off < uint32(l.cache.Cfg().LineBytes); off += 4 {
		if v, ok := l.values[base+off]; ok {
			l.image.Write(base+off, v)
			delete(l.values, base+off)
		}
	}
}

func (l *L1Dir) dropLine(addr uint32) {
	base := l.lineBase(addr)
	for off := uint32(0); off < uint32(l.cache.Cfg().LineBytes); off += 4 {
		delete(l.values, base+off)
	}
}

func (l *L1Dir) cycleStart() {
	if l.Resp.Width() > 0 {
		if l.reply != nil && l.Now() >= l.replyAt {
			l.Resp.Send(0, *l.reply)
			l.Resp.Enable(0)
		} else {
			l.Resp.SendNothing(0)
			l.Resp.Disable(0)
		}
	}
	l.offer(l.Net, l.Now())
}

func (l *L1Dir) react() {
	if l.CPU.Width() > 0 && !l.CPU.AckStatus(0).Known() {
		switch l.CPU.DataStatus(0) {
		case core.Yes:
			if l.cur == nil {
				l.CPU.Ack(0)
			} else {
				l.CPU.Nack(0)
			}
		case core.No:
			l.CPU.Nack(0)
		}
	}
	if !l.NetIn.AckStatus(0).Known() {
		switch l.NetIn.DataStatus(0) {
		case core.Yes:
			l.NetIn.Ack(0)
		case core.No:
			l.NetIn.Nack(0)
		}
	}
}

func (l *L1Dir) cycleEnd() {
	if l.reply != nil && l.Resp.Width() > 0 && l.Resp.Transferred(0) {
		l.reply = nil
		l.cur = nil
	}
	l.retire(l.Net)
	if v, ok := l.NetIn.TransferredData(0); ok {
		l.handleNet(v.(*ccl.Packet).Payload.(DirMsg))
	}
	if v, ok := l.CPU.TransferredData(0); ok {
		ref := v.(MemRef)
		l.cur = &ref
		l.classify()
	}
	// With no message to send and no reply pending, the controller offers
	// nothing until an input arrives.
	if len(l.outQ) == 0 && l.reply == nil {
		l.Sleep()
	}
}

func (l *L1Dir) classify() {
	ref := l.cur
	st := l.cache.Lookup(ref.Addr)
	if (!ref.Write && st != upl.Invalid) || (ref.Write && st == upl.Modified) {
		l.cache.Access(ref.Addr, ref.Write)
		l.cHits.Inc()
		l.complete()
		return
	}
	l.cMisses.Inc()
	kind := GetS
	if ref.Write {
		kind = GetM
	}
	l.waiting = true
	l.push(DirMsg{Kind: kind, Addr: l.lineBase(ref.Addr), From: l.id, To: l.home(ref.Addr)})
}

func (l *L1Dir) home(addr uint32) int { return homeOf(addr, l.cache.Cfg().LineBytes, l.nnodes) }

func (l *L1Dir) handleNet(m DirMsg) {
	switch m.Kind {
	case DirData:
		st := upl.Shared
		if m.Exclusive {
			st = upl.Modified
		}
		res := l.cache.Fill(m.Addr, st)
		if res.Writeback {
			l.flushLine(res.VictimAdr)
			l.push(DirMsg{Kind: DirWB, Addr: l.lineBase(res.VictimAdr), From: l.id, To: l.home(res.VictimAdr)})
		}
		l.waiting = false
		l.finishMiss()
	case DirInv:
		l.cInvs.Inc()
		l.dropLine(m.Addr)
		l.cache.SetState(m.Addr, upl.Invalid)
		l.push(DirMsg{Kind: DirInvAck, Addr: m.Addr, From: l.id, To: m.From})
	case DirRecall:
		l.cRecalls.Inc()
		if l.cache.Lookup(m.Addr) == upl.Modified {
			l.flushLine(m.Addr)
		}
		l.cache.SetState(m.Addr, upl.Invalid)
		l.push(DirMsg{Kind: DirRecallAck, Addr: m.Addr, From: l.id, To: m.From})
	case DirWBAck:
		// nothing to do
	default:
		panic(&core.ContractError{Op: "dir message", Where: l.Name(),
			Detail: fmt.Sprintf("unexpected %v at an L1 controller", m)})
	}
}

func (l *L1Dir) finishMiss() {
	ref := l.cur
	if ref == nil {
		return
	}
	if ref.Write {
		l.cache.Access(ref.Addr, true)
	}
	l.complete()
}

func (l *L1Dir) complete() {
	ref := l.cur
	rep := MemReply{Addr: ref.Addr, Tag: ref.Tag}
	if ref.Write {
		l.values[ref.Addr&^3] = ref.Data
		rep.Data = ref.Data
	} else if v, ok := l.values[ref.Addr&^3]; ok {
		rep.Data = v
	} else {
		rep.Data = l.image.Read(ref.Addr)
	}
	l.reply = &rep
	l.replyAt = l.Now() + uint64(l.hitLat)
}

// homeOf maps a line to its home node by address interleaving.
func homeOf(addr uint32, lineBytes, nodes int) int {
	return int(addr/uint32(lineBytes)) % nodes
}

// dirEntry is one line's directory record.
type dirEntry struct {
	sharers map[int]bool
	owner   int
}

// DirHome is a node's directory-home controller. It serializes requests
// (one in service at a time), recalling modified lines from their owners
// and invalidating sharers before granting, which enforces the
// single-writer/multiple-reader invariant by construction.
//
// Ports: "net" (Out, *ccl.Packet), "netin" (In, *ccl.Packet).
type DirHome struct {
	core.Base
	netOutMixin
	Net   *core.Port
	NetIn *core.Port

	id        int
	lineBytes int
	entries   map[uint32]*dirEntry

	queue   []DirMsg // waiting GetS/GetM
	cur     *DirMsg
	waitInv int
	waitRec bool
	invTo   []int // scratch: sharers to invalidate, reused across requests

	cReqs, cRecallsSent, cInvsSent *core.Counter
}

// NewDirHome constructs node id's home controller.
func NewDirHome(name string, id int, lineBytes int) *DirHome {
	h := &DirHome{id: id, lineBytes: lineBytes, entries: make(map[uint32]*dirEntry)}
	h.Init(name, h)
	h.cReqs = h.Counter("requests")
	h.cRecallsSent = h.Counter("recalls_sent")
	h.cInvsSent = h.Counter("invalidations_sent")
	h.Net = h.AddOutPort("net", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	h.NetIn = h.AddInPort("netin", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	h.OnCycleStart(h.cycleStart)
	h.OnReact(h.react)
	h.OnCycleEnd(h.cycleEnd)
	h.MarkSequential() // net is offered from the message queue at cycle start; netin is acked from its own lane
	return h
}

// Entry returns (sharers, owner) for a line (tests).
func (h *DirHome) Entry(addr uint32) (int, int) {
	e := h.entries[addr&^(uint32(h.lineBytes)-1)]
	if e == nil {
		return 0, -1
	}
	return len(e.sharers), e.owner
}

func (h *DirHome) entry(addr uint32) *dirEntry {
	base := addr &^ (uint32(h.lineBytes) - 1)
	e := h.entries[base]
	if e == nil {
		e = &dirEntry{sharers: make(map[int]bool), owner: -1}
		h.entries[base] = e
	}
	return e
}

func (h *DirHome) cycleStart() {
	// Start the next queued request when idle.
	if h.cur == nil && len(h.queue) > 0 {
		m := h.queue[0]
		h.queue = h.queue[1:]
		h.start(m)
	}
	h.offer(h.Net, h.Now())
}

func (h *DirHome) react() {
	if !h.NetIn.AckStatus(0).Known() {
		switch h.NetIn.DataStatus(0) {
		case core.Yes:
			h.NetIn.Ack(0)
		case core.No:
			h.NetIn.Nack(0)
		}
	}
}

func (h *DirHome) cycleEnd() {
	h.retire(h.Net)
	if v, ok := h.NetIn.TransferredData(0); ok {
		h.handle(v.(*ccl.Packet).Payload.(DirMsg))
	}
	// With no message to send and no request to start, the controller
	// offers nothing until an input arrives.
	if len(h.outQ) == 0 && len(h.queue) == 0 {
		h.Sleep()
	}
}

func (h *DirHome) handle(m DirMsg) {
	switch m.Kind {
	case GetS, GetM:
		h.cReqs.Inc()
		h.queue = append(h.queue, m)
	case DirWB:
		e := h.entry(m.Addr)
		if e.owner == m.From {
			e.owner = -1
		}
		h.push(DirMsg{Kind: DirWBAck, Addr: m.Addr, From: h.id, To: m.From})
	case DirInvAck:
		if h.cur != nil && h.waitInv > 0 && m.Addr == h.cur.Addr {
			h.waitInv--
			if h.waitInv == 0 {
				h.grant()
			}
		}
	case DirRecallAck:
		if h.cur != nil && h.waitRec && m.Addr == h.cur.Addr {
			h.waitRec = false
			h.grant()
		}
	default:
		panic(&core.ContractError{Op: "dir message", Where: h.Name(),
			Detail: fmt.Sprintf("unexpected %v at a home controller", m)})
	}
}

// start begins servicing a GetS/GetM.
func (h *DirHome) start(m DirMsg) {
	h.cur = &m
	e := h.entry(m.Addr)
	if e.owner >= 0 && e.owner != m.From {
		own := e.owner
		h.waitRec = true
		h.cRecallsSent.Inc()
		h.push(DirMsg{Kind: DirRecall, Addr: m.Addr, From: h.id, To: own})
		e.owner = -1
		delete(e.sharers, own)
		return
	}
	e.owner = -1
	if m.Kind == GetM {
		// Invalidate in ascending sharer id: map iteration order would make
		// the message order, and with it the cycle count, differ run to run.
		h.invTo = h.invTo[:0]
		for s := range e.sharers {
			if s != m.From {
				h.invTo = append(h.invTo, s)
			}
		}
		sort.Ints(h.invTo)
		h.waitInv = len(h.invTo)
		for _, s := range h.invTo {
			h.cInvsSent.Inc()
			h.push(DirMsg{Kind: DirInv, Addr: m.Addr, From: h.id, To: s})
		}
		if h.waitInv > 0 {
			return
		}
	}
	h.grant()
}

// grant sends the data and updates the directory entry.
func (h *DirHome) grant() {
	m := h.cur
	e := h.entry(m.Addr)
	if m.Kind == GetM {
		e.sharers = map[int]bool{m.From: true}
		e.owner = m.From
		h.push(DirMsg{Kind: DirData, Addr: m.Addr, From: h.id, To: m.From, Exclusive: true})
	} else {
		e.sharers[m.From] = true
		h.push(DirMsg{Kind: DirData, Addr: m.Addr, From: h.id, To: m.From})
	}
	h.cur = nil
	h.waitInv = 0
	h.waitRec = false
}
