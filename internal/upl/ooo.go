package upl

import (
	"fmt"

	core "liberty/internal/core"
	"liberty/internal/isa"
	"liberty/internal/pcl"
)

// tracker is the out-of-order core's dataflow scoreboard: it assigns
// producer sequence numbers at fetch and records completions, and its
// readiness predicate is what the instruction-window queue's algorithmic
// selection parameter consults.
type tracker struct {
	lastWriter [32]uint64
	lastStore  uint64
	lastMem    uint64
	completed  map[uint64]bool
}

func newTracker() *tracker { return &tracker{completed: make(map[uint64]bool)} }

// onFetch performs rename-time dependence capture (program order).
func (t *tracker) onFetch(d *DynInst) {
	for _, s := range d.In.Sources() {
		if w := t.lastWriter[s]; w != 0 {
			d.SrcSeqs = append(d.SrcSeqs, w)
		}
	}
	if d.IsMem {
		// Memory disambiguation without address comparison: loads order
		// only against older stores (so independent loads overlap —
		// memory-level parallelism), while stores order against every
		// older memory operation (total store order, no load bypassed).
		if d.IsWrite {
			if t.lastMem != 0 {
				d.SrcSeqs = append(d.SrcSeqs, t.lastMem)
			}
			t.lastStore = d.Seq
		} else if t.lastStore != 0 {
			d.SrcSeqs = append(d.SrcSeqs, t.lastStore)
		}
		t.lastMem = d.Seq
	}
	if dest := d.In.Dest(); dest > 0 {
		t.lastWriter[dest] = d.Seq
	}
}

func (t *tracker) done(seq uint64) { t.completed[seq] = true }

func (t *tracker) isDone(seq uint64) bool { return t.completed[seq] }

func (t *tracker) ready(d *DynInst) bool {
	for _, s := range d.SrcSeqs {
		if !t.completed[s] {
			return false
		}
	}
	return true
}

// FUPool is a bank of universal functional units. Issued instructions
// occupy a unit (divides for their full latency, everything else for one
// cycle, pipelined) and signal the tracker at completion. Memory
// operations charge data-cache latency.
type FUPool struct {
	core.Base
	In *core.Port

	lat      Latencies
	trk      *tracker
	dcache   *Cache
	units    []uint64 // per-unit busy-until cycle
	inflight []fuEntry

	cIssued *core.Counter
}

type fuEntry struct {
	di     *DynInst
	doneAt uint64
}

// NewFUPool constructs a pool of n universal units.
func NewFUPool(name string, n int, lat Latencies, dcacheCfg CacheCfg, trk *tracker) (*FUPool, error) {
	if n < 1 {
		n = 1
	}
	if dcacheCfg.Sets == 0 {
		dcacheCfg = DefaultL1()
	}
	dc, err := NewCache(dcacheCfg)
	if err != nil {
		return nil, fmt.Errorf("dcache: %w", err)
	}
	f := &FUPool{lat: lat, trk: trk, dcache: dc, units: make([]uint64, n)}
	f.Init(name, f)
	f.cIssued = f.Counter("issued")
	f.In = f.AddInPort("in", core.PortOpts{MinWidth: 1, DefaultAck: core.No})
	f.OnCycleStart(f.cycleStart)
	f.OnReact(f.react)
	f.OnCycleEnd(f.cycleEnd)
	return f, nil
}

// DCache exposes the pool's data cache model.
func (f *FUPool) DCache() *Cache { return f.dcache }

func (f *FUPool) freeUnits() int {
	n := 0
	for _, b := range f.units {
		if f.Now() >= b {
			n++
		}
	}
	return n
}

func (f *FUPool) cycleStart() {
	// Completions first so same-cycle wakeups reach the window's
	// selection function.
	keep := f.inflight[:0]
	for _, e := range f.inflight {
		if f.Now() >= e.doneAt {
			f.trk.done(e.di.Seq)
		} else {
			keep = append(keep, e)
		}
	}
	f.inflight = keep
}

func (f *FUPool) react() {
	free := f.freeUnits()
	for i := 0; i < f.In.Width(); i++ {
		if f.In.AckStatus(i).Known() {
			if f.In.AckStatus(i) == core.Yes {
				free--
			}
			continue
		}
		switch f.In.DataStatus(i) {
		case core.Unknown:
			return
		case core.Yes:
			if free > 0 {
				f.In.Ack(i)
				free--
			} else {
				f.In.Nack(i)
			}
		case core.No:
			f.In.Nack(i)
		}
	}
}

func (f *FUPool) cycleEnd() {
	for i := 0; i < f.In.Width(); i++ {
		v, ok := f.In.TransferredData(i)
		if !ok {
			continue
		}
		di := v.(*DynInst)
		lat := f.lat.Of(di.In)
		if di.IsMem {
			lat = f.dcache.Access(di.MemAddr, di.IsWrite).Latency
		}
		occupy := uint64(1)
		if unpipelined(di.In) {
			occupy = uint64(lat)
		}
		// Find a free unit (react guaranteed one).
		for u := range f.units {
			if f.Now() >= f.units[u] {
				f.units[u] = f.Now() + occupy
				break
			}
		}
		f.inflight = append(f.inflight, fuEntry{di: di, doneAt: f.Now() + uint64(lat)})
		f.cIssued.Inc()
	}
}

// OOOCPU is the out-of-order core template. Its instruction window and
// reorder buffer are the same pcl.Queue template as a router's I/O buffer,
// customized purely through the algorithmic selection parameter: the
// window selects dataflow-ready instructions in any order; the ROB
// selects only its completed head entries, committing in program order
// (claim C1).
type OOOCPU struct {
	core.Composite

	Fetch  *FetchStage
	Window *pcl.Queue
	ROB    *pcl.Queue
	FUs    *FUPool
	WB     *WBStage

	trk *tracker
}

// NewOOOCPU builds the out-of-order core into b over a loaded program.
func NewOOOCPU(b *core.Builder, name string, prog *isa.Program, cfg CPUCfg) (*OOOCPU, error) {
	cfg.fill()
	pred, err := NewPredictor(cfg.Predictor, cfg.PredictorBits)
	if err != nil {
		return nil, err
	}
	emu := isa.NewCPU()
	prog.LoadInto(emu.Mem)
	emu.Reset(prog.Entry)

	c := &OOOCPU{trk: newTracker()}
	c.Init(name, c)

	c.Fetch, err = NewFetchStage(core.Sub(name, "fetch"), emu, FetchCfg{
		Width:             cfg.FetchWidth,
		Predictor:         pred,
		MispredictPenalty: cfg.MispredictPenalty,
		ICache:            cfg.ICache,
		MaxInsts:          cfg.MaxInsts,
		OnFetch:           c.trk.onFetch,
	})
	if err != nil {
		return nil, err
	}
	c.FUs, err = NewFUPool(core.Sub(name, "fu"), cfg.IssueWidth, cfg.Lat, cfg.DCache, c.trk)
	if err != nil {
		return nil, err
	}
	windowSelect := pcl.SelectFn(func(entries []any) []int {
		var out []int
		for i, e := range entries {
			if c.trk.ready(e.(*DynInst)) {
				out = append(out, i)
			}
		}
		return out
	})
	c.Window, err = pcl.NewQueue(core.Sub(name, "window"), core.Params{
		"capacity": cfg.WindowSize,
		"select":   windowSelect,
	})
	if err != nil {
		return nil, err
	}
	robSelect := pcl.SelectFn(func(entries []any) []int {
		var out []int
		for i, e := range entries {
			if !c.trk.isDone(e.(*DynInst).Seq) {
				break
			}
			out = append(out, i)
		}
		return out
	})
	c.ROB, err = pcl.NewQueue(core.Sub(name, "rob"), core.Params{
		"capacity": cfg.ROBSize,
		"select":   robSelect,
	})
	if err != nil {
		return nil, err
	}
	c.WB = NewWBStage(core.Sub(name, "wb"), nil)

	// Assembly order matters for same-cycle wakeups: the FU pool's
	// completions run before the window and ROB compute their offers.
	for _, inst := range []core.Instance{c.Fetch, c.FUs, c.Window, c.ROB, c.WB} {
		b.Add(inst)
		c.AddChild(inst)
	}

	// Dispatch: each fetch lane broadcasts atomically into both the
	// window and the ROB through a per-lane tee.
	for i := 0; i < cfg.FetchWidth; i++ {
		tee, err := pcl.NewTee(core.Sub(name, fmt.Sprintf("dispatch%d", i)), nil)
		if err != nil {
			return nil, err
		}
		b.Add(tee)
		c.AddChild(tee)
		if err := b.Connect(c.Fetch, "out", tee, "in"); err != nil {
			return nil, err
		}
		if err := b.Connect(tee, "out", c.Window, "in"); err != nil {
			return nil, err
		}
		if err := b.Connect(tee, "out", c.ROB, "in"); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.IssueWidth; i++ {
		if err := b.Connect(c.Window, "out", c.FUs, "in"); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.CommitWidth; i++ {
		if err := b.Connect(c.ROB, "out", c.WB, "in"); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Done reports whether the program halted and every instruction committed.
func (c *OOOCPU) Done() bool {
	return c.Fetch.Done() && c.WB.Retired() == c.Fetch.Emu().Instret-c.Fetch.Skipped()
}

// Retired returns the number of committed instructions.
func (c *OOOCPU) Retired() uint64 { return c.WB.Retired() }

// Emu exposes architectural state.
func (c *OOOCPU) Emu() *isa.CPU { return c.Fetch.Emu() }

// IPC returns retired instructions per elapsed cycle.
func (c *OOOCPU) IPC(sim *core.Sim) float64 {
	if sim.Now() == 0 {
		return 0
	}
	return float64(c.WB.Retired()) / float64(sim.Now())
}
