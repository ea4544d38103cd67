package mpl

import (
	"fmt"

	core "liberty/internal/core"
	"liberty/internal/upl"
)

// MemImage is the backing main-memory value store shared by a coherence
// domain. Modified lines live in their owner's controller until flushed.
type MemImage struct {
	words map[uint32]uint32
}

// NewMemImage returns an empty memory image (all zeros).
func NewMemImage() *MemImage { return &MemImage{words: make(map[uint32]uint32)} }

// Read returns the word at addr.
func (m *MemImage) Read(addr uint32) uint32 { return m.words[addr&^3] }

// Write stores the word at addr.
func (m *MemImage) Write(addr uint32, v uint32) { m.words[addr&^3] = v }

// snooper is the snoop-phase hook a controller exposes to the bus — the
// combinational snoop response of real hardware, realized as an
// algorithmic parameter.
type snooper interface {
	snoopRd(addr uint32) (hadCopy, wasM bool)
	snoopRdX(addr uint32) (hadCopy, wasM bool)
	ctrlID() int
}

// SnoopBusCfg times the shared coherence bus.
type SnoopBusCfg struct {
	BusLat   int // arbitration + transfer (default 3)
	MemLat   int // main-memory fetch when no cache supplies (default 20)
	FlushLat int // cache-to-cache supply (default 6)
}

func (c *SnoopBusCfg) fill() {
	if c.BusLat <= 0 {
		c.BusLat = 3
	}
	if c.MemLat <= 0 {
		c.MemLat = 20
	}
	if c.FlushLat <= 0 {
		c.FlushLat = 6
	}
}

// SnoopBus is the atomic shared bus: one transaction at a time, round-
// robin arbitration among controllers, snoop phase on acceptance, grant
// delivered to the requester after the transaction latency.
//
// Ports: "req" (In, width = controllers), "grant" (Out, same width,
// connection i belongs to controller i).
type SnoopBus struct {
	core.Base
	Req   *core.Port
	Grant *core.Port

	cfg      SnoopBusCfg
	snoopers []snooper
	last     int
	busyTill uint64
	pending  *BusGrant
	readyAt  uint64
	picked   int // input granted this cycle, -1 none

	cTx     *core.Counter
	cFlush  *core.Counter
	cMemFet *core.Counter
}

// NewSnoopBus constructs the bus.
func NewSnoopBus(name string, cfg SnoopBusCfg) *SnoopBus {
	cfg.fill()
	s := &SnoopBus{cfg: cfg, last: -1, picked: -1}
	s.Init(name, s)
	s.cTx = s.Counter("transactions")
	s.cFlush = s.Counter("cache_to_cache")
	s.cMemFet = s.Counter("memory_fetches")
	s.Req = s.AddInPort("req", core.PortOpts{MinWidth: 1, DefaultAck: core.No})
	s.Grant = s.AddOutPort("grant", core.PortOpts{MinWidth: 1})
	s.OnCycleStart(s.cycleStart)
	s.OnReact(s.react)
	s.OnCycleEnd(s.cycleEnd)
	s.MarkSequential() // grant is offered from the pending grant at cycle start; req is acked from req's own lanes, the pick and the bus state
	return s
}

func (s *SnoopBus) register(sn snooper) { s.snoopers = append(s.snoopers, sn) }

func (s *SnoopBus) cycleStart() {
	s.picked = -1
	n := s.Grant.Width()
	if s.pending != nil && s.Now() >= s.readyAt {
		if j := s.pending.Tx.Src; j >= 0 && j < n {
			s.Grant.IdleLanes(0, j)
			s.Grant.Send(j, *s.pending)
			s.Grant.Enable(j)
			s.Grant.IdleLanes(j+1, n)
			return
		}
	}
	s.Grant.Idle()
}

func (s *SnoopBus) react() {
	n := s.Req.Width()
	free := s.pending == nil && s.Now() >= s.busyTill
	if !free {
		s.Req.NackRest()
		return
	}
	// Round-robin pick once every request is known.
	if _, settled := s.Req.CountOffers(); !settled {
		return
	}
	if s.picked < 0 && n > 0 {
		if s.picked = s.Req.NextOffered((s.last + 1) % n); s.picked < 0 {
			s.picked = s.Req.NextOffered(0)
		}
	}
	if s.picked < 0 {
		s.Req.NackRest()
		return
	}
	s.Req.NackLanes(0, s.picked)
	if !s.Req.AckStatus(s.picked).Known() {
		s.Req.Ack(s.picked)
	}
	s.Req.NackLanes(s.picked+1, n)
}

func (s *SnoopBus) cycleEnd() {
	if s.pending != nil && s.Grant.Transferred(s.pending.Tx.Src) {
		s.pending = nil
	}
	if s.picked < 0 {
		return
	}
	v, ok := s.Req.TransferredData(s.picked)
	if !ok {
		return
	}
	s.last = s.picked
	tx, okTx := v.(BusTx)
	if !okTx {
		panic(&core.ContractError{Op: "bus request", Where: s.Name(),
			Detail: fmt.Sprintf("expected mpl.BusTx, got %T", v)})
	}
	s.cTx.Inc()
	grant := &BusGrant{Tx: tx}
	lat := s.cfg.BusLat
	switch tx.Kind {
	case BusRd:
		for _, sn := range s.snoopers {
			if sn.ctrlID() == tx.Src {
				continue
			}
			had, wasM := sn.snoopRd(tx.Addr)
			grant.Shared = grant.Shared || had
			grant.WasDirty = grant.WasDirty || wasM
		}
		if grant.WasDirty {
			lat += s.cfg.FlushLat
			s.cFlush.Inc()
		} else {
			lat += s.cfg.MemLat
			s.cMemFet.Inc()
		}
	case BusRdX, BusUpgr:
		for _, sn := range s.snoopers {
			if sn.ctrlID() == tx.Src {
				continue
			}
			had, wasM := sn.snoopRdX(tx.Addr)
			grant.Shared = grant.Shared || had
			grant.WasDirty = grant.WasDirty || wasM
		}
		if tx.Kind == BusRdX {
			if grant.WasDirty {
				lat += s.cfg.FlushLat
				s.cFlush.Inc()
			} else {
				lat += s.cfg.MemLat
				s.cMemFet.Inc()
			}
		}
	case BusWB:
		// Fire-and-forget: occupies the bus but produces no grant.
		s.busyTill = s.Now() + uint64(lat)
		s.picked = -1
		return
	}
	s.pending = grant
	s.readyAt = s.Now() + uint64(lat)
	s.busyTill = s.readyAt
	s.picked = -1
}

// CacheCtrlCfg configures a snooping cache controller.
type CacheCtrlCfg struct {
	Cache  upl.CacheCfg
	MESI   bool // enable the Exclusive state (silent S->M upgrade path)
	HitLat int  // local hit latency (default 1)
}

// CacheCtrl is one node's L1 + snooping coherence controller. It serves
// one outstanding CPU reference at a time (blocking core model), talking
// to the bus for misses and upgrades and answering snoops from its peers.
//
// Ports: "cpu" (In, MemRef), "resp" (Out, MemReply), "bus" (Out, BusTx),
// "grant" (In, BusGrant).
type CacheCtrl struct {
	core.Base
	CPU  *core.Port
	Resp *core.Port
	Bus  *core.Port
	GrIn *core.Port

	id    int
	cfg   CacheCtrlCfg
	cache *upl.Cache
	image *MemImage

	// Locally modified word values (flushed to the image on snoop or
	// eviction).
	values map[uint32]uint32

	cur     *MemRef
	replyAt uint64
	reply   *MemReply
	busTx   *BusTx // outstanding or queued bus request for cur
	wbQueue []BusTx
	busWait bool

	cHits, cMisses, cUpgrades, cInvRecv *core.Counter
}

// NewCacheCtrl constructs controller id attached to bus and image.
func NewCacheCtrl(name string, id int, cfg CacheCtrlCfg, bus *SnoopBus, image *MemImage) (*CacheCtrl, error) {
	if cfg.Cache.Sets == 0 {
		cfg.Cache = upl.DefaultL1()
	}
	if cfg.HitLat <= 0 {
		cfg.HitLat = 1
	}
	cache, err := upl.NewCache(cfg.Cache)
	if err != nil {
		return nil, err
	}
	c := &CacheCtrl{id: id, cfg: cfg, cache: cache, image: image, values: make(map[uint32]uint32)}
	c.Init(name, c)
	c.cHits = c.Counter("hits")
	c.cMisses = c.Counter("misses")
	c.cUpgrades = c.Counter("upgrades")
	c.cInvRecv = c.Counter("snoop_actions")
	c.CPU = c.AddInPort("cpu", core.PortOpts{MaxWidth: 1, DefaultAck: core.No})
	c.Resp = c.AddOutPort("resp", core.PortOpts{MaxWidth: 1})
	c.Bus = c.AddOutPort("bus", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	c.GrIn = c.AddInPort("grant", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	c.OnCycleStart(c.cycleStart)
	c.OnReact(c.react)
	c.OnCycleEnd(c.cycleEnd)
	c.MarkSequential() // resp and bus are offered from the reply and the bus queue at cycle start; cpu is acked from its own lane and cur, grant from its own lane
	bus.register(c)
	return c, nil
}

// Cache exposes the controller's cache model (tests inspect line states).
func (c *CacheCtrl) Cache() *upl.Cache { return c.cache }

func (c *CacheCtrl) ctrlID() int { return c.id }

func (c *CacheCtrl) lineBase(addr uint32) uint32 {
	lb := uint32(c.cfg.Cache.LineBytes)
	return addr &^ (lb - 1)
}

// flushLine copies locally modified words of addr's line to the image.
func (c *CacheCtrl) flushLine(addr uint32) {
	base := c.lineBase(addr)
	for off := uint32(0); off < uint32(c.cfg.Cache.LineBytes); off += 4 {
		if v, ok := c.values[base+off]; ok {
			c.image.Write(base+off, v)
			delete(c.values, base+off)
		}
	}
}

func (c *CacheCtrl) dropLine(addr uint32) {
	base := c.lineBase(addr)
	for off := uint32(0); off < uint32(c.cfg.Cache.LineBytes); off += 4 {
		delete(c.values, base+off)
	}
}

func (c *CacheCtrl) snoopRd(addr uint32) (hadCopy, wasM bool) {
	st := c.cache.Lookup(addr)
	if st == upl.Invalid {
		return false, false
	}
	if st == upl.Modified {
		c.flushLine(addr)
		wasM = true
	}
	c.cache.SetState(addr, upl.Shared)
	if c.cInvRecv != nil && wasM {
		// downgrade counted as received coherence action
		c.cInvRecv.Inc()
	}
	return true, wasM
}

func (c *CacheCtrl) snoopRdX(addr uint32) (hadCopy, wasM bool) {
	// A pending upgrade for this line loses the race: the line is about
	// to vanish, so the upgrade must become a full read-exclusive.
	if c.busTx != nil && c.busTx.Kind == BusUpgr && c.lineBase(c.busTx.Addr) == c.lineBase(addr) {
		c.busTx.Kind = BusRdX
	}
	st := c.cache.Lookup(addr)
	if st == upl.Invalid {
		return false, false
	}
	if st == upl.Modified {
		c.flushLine(addr)
		wasM = true
	} else {
		c.dropLine(addr)
	}
	c.cache.SetState(addr, upl.Invalid)
	if c.cInvRecv != nil {
		c.cInvRecv.Inc()
	}
	return true, wasM
}

func (c *CacheCtrl) cycleStart() {
	// Reply to the core when ready.
	if c.Resp.Width() > 0 {
		if c.reply != nil && c.Now() >= c.replyAt {
			c.Resp.Send(0, *c.reply)
			c.Resp.Enable(0)
		} else {
			c.Resp.SendNothing(0)
			c.Resp.Disable(0)
		}
	}
	// Offer at most one bus request: the current transaction's, else a
	// queued writeback.
	switch {
	case c.busTx != nil && !c.busWait:
		c.Bus.Send(0, *c.busTx)
		c.Bus.Enable(0)
	case c.busTx == nil && len(c.wbQueue) > 0:
		c.Bus.Send(0, c.wbQueue[0])
		c.Bus.Enable(0)
	default:
		c.Bus.SendNothing(0)
		c.Bus.Disable(0)
	}
}

func (c *CacheCtrl) react() {
	// Accept a CPU reference only when idle.
	if c.CPU.Width() > 0 && !c.CPU.AckStatus(0).Known() {
		switch c.CPU.DataStatus(0) {
		case core.Yes:
			if c.cur == nil {
				c.CPU.Ack(0)
			} else {
				c.CPU.Nack(0)
			}
		case core.No:
			c.CPU.Nack(0)
		}
	}
	// Always accept grants.
	if !c.GrIn.AckStatus(0).Known() {
		switch c.GrIn.DataStatus(0) {
		case core.Yes:
			c.GrIn.Ack(0)
		case core.No:
			c.GrIn.Nack(0)
		}
	}
}

// fill installs a line after a bus transaction, queueing a writeback for
// any dirty victim.
func (c *CacheCtrl) fill(addr uint32, st upl.LineState) {
	res := c.cache.Fill(addr, st)
	if res.Writeback {
		c.flushLine(res.VictimAdr)
		c.wbQueue = append(c.wbQueue, BusTx{Kind: BusWB, Addr: res.VictimAdr, Src: c.id})
	}
}

func (c *CacheCtrl) loadValue(addr uint32) uint32 {
	if v, ok := c.values[addr&^3]; ok {
		return v
	}
	return c.image.Read(addr)
}

func (c *CacheCtrl) cycleEnd() {
	// Completed reply?
	if c.reply != nil && c.Resp.Width() > 0 && c.Resp.Transferred(0) {
		c.reply = nil
		c.cur = nil
	}
	// Bus request accepted?
	if c.Bus.Transferred(0) {
		if c.busTx != nil && !c.busWait {
			c.busWait = true
		} else if c.busTx == nil && len(c.wbQueue) > 0 {
			c.wbQueue = c.wbQueue[1:]
		}
	}
	// Grant received?
	if v, ok := c.GrIn.TransferredData(0); ok {
		g := v.(BusGrant)
		if c.busTx == nil || g.Tx.Addr != c.busTx.Addr {
			panic(&core.ContractError{Op: "grant", Where: c.Name(),
				Detail: "grant for a transaction this controller did not issue"})
		}
		switch g.Tx.Kind {
		case BusRd:
			st := upl.Shared
			if c.cfg.MESI && !g.Shared {
				st = upl.Exclusive
			}
			c.fill(g.Tx.Addr, st)
		case BusRdX, BusUpgr:
			c.fill(g.Tx.Addr, upl.Modified)
		}
		c.busTx = nil
		c.busWait = false
		c.finish()
	}
	// New CPU reference accepted?
	if v, ok := c.CPU.TransferredData(0); ok {
		ref := v.(MemRef)
		c.cur = &ref
		c.classify()
	}
}

// classify decides hit/upgrade/miss for the current reference.
func (c *CacheCtrl) classify() {
	ref := c.cur
	st := c.cache.Lookup(ref.Addr)
	if !ref.Write {
		if st != upl.Invalid {
			c.cache.Access(ref.Addr, false) // LRU touch
			c.cHits.Inc()
			c.complete()
			return
		}
		c.cMisses.Inc()
		c.busTx = &BusTx{Kind: BusRd, Addr: ref.Addr, Src: c.id}
		return
	}
	switch st {
	case upl.Modified:
		c.cache.Access(ref.Addr, true)
		c.cHits.Inc()
		c.complete()
	case upl.Exclusive:
		// MESI silent upgrade.
		c.cache.SetState(ref.Addr, upl.Modified)
		c.cache.Access(ref.Addr, true)
		c.cHits.Inc()
		c.complete()
	case upl.Shared:
		c.cUpgrades.Inc()
		c.busTx = &BusTx{Kind: BusUpgr, Addr: ref.Addr, Src: c.id}
	default:
		c.cMisses.Inc()
		c.busTx = &BusTx{Kind: BusRdX, Addr: ref.Addr, Src: c.id}
	}
}

// finish completes the current reference after its bus transaction.
func (c *CacheCtrl) finish() {
	ref := c.cur
	if ref.Write {
		c.cache.Access(ref.Addr, true)
	}
	c.complete()
}

// complete performs the architectural effect and schedules the reply.
func (c *CacheCtrl) complete() {
	ref := c.cur
	rep := MemReply{Addr: ref.Addr, Tag: ref.Tag}
	if ref.Write {
		c.values[ref.Addr&^3] = ref.Data
		rep.Data = ref.Data
	} else {
		rep.Data = c.loadValue(ref.Addr)
	}
	c.reply = &rep
	c.replyAt = c.Now() + uint64(c.cfg.HitLat)
}
