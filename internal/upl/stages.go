package upl

import (
	"fmt"

	core "liberty/internal/core"
)

// DecodeStage is the scalar decode/hazard stage: it holds one instruction
// and releases it only when every register source is available under the
// bypass network (back-to-back ALU, one load-use bubble, multi-cycle
// multiply/divide results at completion).
type DecodeStage struct {
	core.Base
	In  *core.Port
	Out *core.Port

	lat      Latencies
	regReady [32]uint64
	buf      *DynInst

	cStalls *core.Counter
}

// NewDecodeStage constructs a decode stage.
func NewDecodeStage(name string, lat Latencies) *DecodeStage {
	d := &DecodeStage{lat: lat}
	d.Init(name, d)
	d.cStalls = d.Counter("hazard_stalls")
	d.In = d.AddInPort("in", core.PortOpts{MinWidth: 1, MaxWidth: 1, DefaultAck: core.No})
	d.Out = d.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	d.OnCycleStart(d.cycleStart)
	d.OnReact(d.react)
	d.OnCycleEnd(d.cycleEnd)
	return d
}

func (d *DecodeStage) ready(di *DynInst) bool {
	for _, s := range di.In.Sources() {
		if d.regReady[s] > d.Now() {
			return false
		}
	}
	return true
}

func (d *DecodeStage) cycleStart() {
	if d.buf != nil && d.ready(d.buf) {
		d.Out.Send(0, d.buf)
		d.Out.Enable(0)
	} else {
		if d.buf != nil {
			d.cStalls.Inc()
		}
		d.Out.SendNothing(0)
		d.Out.Disable(0)
	}
}

func (d *DecodeStage) react() {
	if d.In.AckStatus(0).Known() {
		return
	}
	switch d.In.DataStatus(0) {
	case core.Yes:
		// Accept when the slot is free now or frees this cycle.
		if d.buf == nil || d.Out.AckStatus(0) == core.Yes {
			d.In.Ack(0)
		} else if d.Out.AckStatus(0) == core.No {
			d.In.Nack(0)
		}
	case core.No:
		d.In.Nack(0)
	}
}

// resultDelay returns how many cycles after issue the destination value
// becomes bypassable to a dependent instruction's issue.
func (d *DecodeStage) resultDelay(di *DynInst) uint64 {
	if di.IsMem && !di.IsWrite {
		return uint64(d.lat.Mem) + 1 // load-use bubble
	}
	return uint64(d.lat.Of(di.In))
}

func (d *DecodeStage) cycleEnd() {
	if d.buf != nil && d.Out.Transferred(0) {
		if dest := d.buf.In.Dest(); dest > 0 {
			d.regReady[dest] = d.Now() + d.resultDelay(d.buf)
		}
		d.buf = nil
	}
	if v, ok := d.In.TransferredData(0); ok {
		d.buf = v.(*DynInst)
	}
}

// varLatStage is the shared body of the execute and memory stages: a
// single-slot station whose occupant becomes offerable lat(inst) cycles
// after acceptance.
type varLatStage struct {
	core.Base
	In  *core.Port
	Out *core.Port

	latOf  func(*DynInst) int
	onDone func(*DynInst)
	buf    *DynInst
	doneAt uint64

	cBusy *core.Counter
}

func (s *varLatStage) initPorts(name string, self core.Instance) {
	s.Init(name, self)
	s.cBusy = s.Counter("busy_cycles")
	s.In = s.AddInPort("in", core.PortOpts{MinWidth: 1, MaxWidth: 1, DefaultAck: core.No})
	s.Out = s.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	s.OnCycleStart(s.cycleStart)
	s.OnReact(s.react)
	s.OnCycleEnd(s.cycleEnd)
}

func (s *varLatStage) cycleStart() {
	if s.buf != nil {
		s.cBusy.Inc()
	}
	if s.buf != nil && s.Now() >= s.doneAt {
		s.Out.Send(0, s.buf)
		s.Out.Enable(0)
	} else {
		s.Out.SendNothing(0)
		s.Out.Disable(0)
	}
}

func (s *varLatStage) react() {
	if s.In.AckStatus(0).Known() {
		return
	}
	switch s.In.DataStatus(0) {
	case core.Yes:
		if s.buf == nil || (s.Now() >= s.doneAt && s.Out.AckStatus(0) == core.Yes) {
			s.In.Ack(0)
		} else if s.buf != nil && (s.Now() < s.doneAt || s.Out.AckStatus(0) == core.No) {
			s.In.Nack(0)
		}
	case core.No:
		s.In.Nack(0)
	}
}

func (s *varLatStage) cycleEnd() {
	if s.buf != nil && s.Out.Transferred(0) {
		if s.onDone != nil {
			s.onDone(s.buf)
		}
		s.buf = nil
	}
	if v, ok := s.In.TransferredData(0); ok {
		di := v.(*DynInst)
		s.buf = di
		lat := s.latOf(di)
		if lat < 1 {
			lat = 1
		}
		// Accepted during cycle Now; occupies the station through
		// Now+lat-1 and is offerable at Now+lat.
		s.doneAt = s.Now() + uint64(lat)
	}
}

// ExecStage is the scalar execute stage; divides monopolize the unit.
type ExecStage struct {
	varLatStage
}

// NewExecStage constructs an execute stage with the given latency table.
func NewExecStage(name string, lat Latencies) *ExecStage {
	e := &ExecStage{}
	e.latOf = func(di *DynInst) int {
		if di.IsMem {
			return 1 // address generation; the memory stage pays the access
		}
		return lat.Of(di.In)
	}
	e.initPorts(name, e)
	return e
}

// MemStage is the scalar memory stage, charging data-cache latency to
// loads and stores, optionally through a two-level hierarchy: with an L2
// configured, an L1 miss pays the L1 hit time plus the L2 access (whose
// own MissLat models main memory).
type MemStage struct {
	varLatStage
	dcache *Cache
	l2     *Cache
}

// NewMemStage constructs a memory stage with its own data cache model.
func NewMemStage(name string, cfg CacheCfg) (*MemStage, error) {
	return NewMemStageL2(name, cfg, CacheCfg{})
}

// NewMemStageL2 constructs a memory stage with an L1 backed by an L2
// (l2cfg.Sets == 0 selects a single-level hierarchy).
func NewMemStageL2(name string, cfg, l2cfg CacheCfg) (*MemStage, error) {
	if cfg.Sets == 0 {
		cfg = DefaultL1()
	}
	dc, err := NewCache(cfg)
	if err != nil {
		return nil, fmt.Errorf("dcache: %w", err)
	}
	m := &MemStage{dcache: dc}
	if l2cfg.Sets != 0 {
		l2, err := NewCache(l2cfg)
		if err != nil {
			return nil, fmt.Errorf("l2: %w", err)
		}
		m.l2 = l2
	}
	m.latOf = func(di *DynInst) int {
		if !di.IsMem {
			return 1
		}
		res := m.dcache.Access(di.MemAddr, di.IsWrite)
		if res.Hit || m.l2 == nil {
			return res.Latency
		}
		// L1 miss through the L2: pay L1 hit time plus the L2 access.
		return m.dcache.Cfg().HitLat + m.l2.Access(di.MemAddr, di.IsWrite).Latency
	}
	m.initPorts(name, m)
	return m, nil
}

// DCache exposes the data cache model for statistics.
func (m *MemStage) DCache() *Cache { return m.dcache }

// L2 exposes the second-level cache model, or nil.
func (m *MemStage) L2() *Cache { return m.l2 }

// WBStage retires instructions and closes the pipeline.
type WBStage struct {
	core.Base
	In *core.Port

	retired  uint64
	lastSeq  uint64
	onRetire func(*DynInst)

	cRetired *core.Counter
}

// NewWBStage constructs a writeback/commit stage. onRetire, when non-nil,
// observes every retired instruction.
func NewWBStage(name string, onRetire func(*DynInst)) *WBStage {
	w := &WBStage{onRetire: onRetire}
	w.Init(name, w)
	w.cRetired = w.Counter("retired")
	w.In = w.AddInPort("in", core.PortOpts{MinWidth: 1})
	w.OnCycleEnd(w.cycleEnd)
	return w
}

// Retired returns the number of instructions retired.
func (w *WBStage) Retired() uint64 { return w.retired }

func (w *WBStage) cycleEnd() {
	for i := 0; i < w.In.Width(); i++ {
		v, ok := w.In.TransferredData(i)
		if !ok {
			continue
		}
		di := v.(*DynInst)
		if di.Seq <= w.lastSeq {
			panic(&core.ContractError{Op: "retire", Where: w.Name(),
				Detail: fmt.Sprintf("out-of-order retirement: #%d after #%d", di.Seq, w.lastSeq)})
		}
		w.lastSeq = di.Seq
		w.retired++
		w.cRetired.Inc()
		if w.onRetire != nil {
			w.onRetire(di)
		}
	}
}
