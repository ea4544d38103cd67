package upl

import (
	"fmt"

	core "liberty/internal/core"
	"liberty/internal/isa"
)

// FetchCfg configures the functional-first front end.
type FetchCfg struct {
	Width             int // instructions fetched per cycle (default 1)
	Predictor         Predictor
	MispredictPenalty int // redirect bubble cycles (default 3)
	ICache            CacheCfg
	MaxInsts          uint64 // stop after this many (0 = until HALT)
	// UseBTB adds a branch target buffer so repeated indirect-jump
	// targets avoid the redirect penalty; BTBBits sizes it (default 8).
	UseBTB  bool
	BTBBits int
	// UseRAS adds a return address stack predicting jr-ra returns;
	// RASDepth sizes it (default 8).
	UseRAS   bool
	RASDepth int
	// OnFetch, when set, observes every fetched instruction before it is
	// offered downstream (the out-of-order core uses it to attach
	// dataflow dependencies) — an algorithmic parameter in the paper's
	// sense.
	OnFetch func(*DynInst)
}

// FetchStage runs the lr32 emulator in program order, consults the branch
// predictor, charges icache and misprediction penalties, and streams
// DynInst records from its "out" port.
type FetchStage struct {
	core.Base
	Out *core.Port

	emu        *isa.CPU
	cfg        FetchCfg
	icache     *Cache
	btb        *BTB
	ras        *RAS
	pending    []*DynInst
	seq        uint64
	skipped    uint64
	stallUntil uint64
	done       bool
	runErr     error

	cFetched  *core.Counter
	cMispred  *core.Counter
	cBranches *core.Counter
	cStalls   *core.Counter
}

// NewFetchStage constructs a front end over an already-loaded emulator.
func NewFetchStage(name string, emu *isa.CPU, cfg FetchCfg) (*FetchStage, error) {
	if cfg.Width <= 0 {
		cfg.Width = 1
	}
	if cfg.MispredictPenalty <= 0 {
		cfg.MispredictPenalty = 3
	}
	if cfg.Predictor == nil {
		cfg.Predictor = NewBimodal(10)
	}
	if cfg.ICache.Sets == 0 {
		cfg.ICache = DefaultL1()
	}
	ic, err := NewCache(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("icache: %w", err)
	}
	f := &FetchStage{emu: emu, cfg: cfg, icache: ic}
	if cfg.UseBTB {
		f.btb = NewBTB(cfg.BTBBits)
	}
	if cfg.UseRAS {
		f.ras = NewRAS(cfg.RASDepth)
	}
	f.Init(name, f)
	f.cFetched = f.Counter("fetched")
	f.cMispred = f.Counter("mispredicts")
	f.cBranches = f.Counter("branches")
	f.cStalls = f.Counter("stall_cycles")
	f.Out = f.AddOutPort("out", core.PortOpts{MinWidth: 1})
	f.OnCycleStart(f.cycleStart)
	f.OnCycleEnd(f.cycleEnd)
	return f, nil
}

// Done reports whether the program has halted and every fetched
// instruction has been handed downstream.
func (f *FetchStage) Done() bool { return f.done && len(f.pending) == 0 }

// Err returns the functional-execution error that stopped the front end,
// if any.
func (f *FetchStage) Err() error { return f.runErr }

// ICache exposes the instruction cache model for statistics.
func (f *FetchStage) ICache() *Cache { return f.icache }

// Emu exposes the architectural state (the paper's instruction-set
// emulation component).
func (f *FetchStage) Emu() *isa.CPU { return f.emu }

func (f *FetchStage) fetchOne() bool {
	if f.done || f.runErr != nil {
		return false
	}
	if f.cfg.MaxInsts > 0 && f.seq >= f.cfg.MaxInsts {
		f.done = true
		return false
	}
	pc := f.emu.PC
	res := f.icache.Access(pc, false)
	in, err := f.emu.Fetch()
	if err != nil {
		f.runErr = err
		f.done = true
		return false
	}
	d := &DynInst{Seq: f.seq + 1, PC: pc, In: in}
	cl := in.Op.Class()
	if cl == isa.ClassLoad || cl == isa.ClassStore {
		d.IsMem = true
		d.IsWrite = cl == isa.ClassStore
		d.MemAddr = f.emu.R[in.Rs] + uint32(in.Imm)
	}
	predTaken := false
	if in.Op.IsBranch() {
		d.Branch = true
		predTaken = f.cfg.Predictor.Predict(pc)
	}
	if err := f.emu.Exec(in); err != nil {
		f.runErr = err
		f.done = true
		return false
	}
	f.seq++
	d.NextPC = f.emu.PC
	if d.Branch {
		d.Taken = d.NextPC != pc+4
		f.cfg.Predictor.Update(pc, d.Taken)
		d.Mispred = predTaken != d.Taken
		f.cBranches.Inc()
	} else if in.Op == isa.OpJr || in.Op == isa.OpJalr {
		d.Mispred = !f.predictIndirect(pc, in, d.NextPC)
	}
	// Calls push their return address for the RAS.
	if f.ras != nil && (in.Op == isa.OpJal || (in.Op == isa.OpJalr && in.Rd == isa.RegRA)) {
		f.ras.Push(pc + 4)
	}
	if f.cfg.OnFetch != nil {
		f.cfg.OnFetch(d)
	}
	f.pending = append(f.pending, d)
	f.cFetched.Inc()
	if d.Mispred {
		f.cMispred.Inc()
		f.stallUntil = f.Now() + uint64(f.cfg.MispredictPenalty)
	}
	if !res.Hit {
		f.stallUntil = f.Now() + uint64(f.cfg.ICache.MissLat)
	}
	if f.emu.Halted {
		f.done = true
	}
	return f.stallUntil <= f.Now()
}

// predictIndirect reports whether the front end correctly predicted an
// indirect transfer's target: returns consult the RAS, other indirect
// jumps the BTB (which is then trained).
func (f *FetchStage) predictIndirect(pc uint32, in isa.Inst, actual uint32) bool {
	if f.ras != nil && in.Op == isa.OpJr && in.Rs == isa.RegRA {
		if pred, ok := f.ras.Pop(); ok && pred == actual {
			f.ras.Hits++
			return true
		}
		f.ras.Misses++
		return false
	}
	if f.btb != nil {
		pred, ok := f.btb.Predict(pc)
		f.btb.Update(pc, actual)
		return ok && pred == actual
	}
	return false
}

func (f *FetchStage) cycleStart() {
	if f.Now() >= f.stallUntil {
		for len(f.pending) < f.cfg.Width {
			if !f.fetchOne() {
				break
			}
		}
	} else {
		f.cStalls.Inc()
	}
	for i := 0; i < f.Out.Width() && i < len(f.pending); i++ {
		f.Out.Send(i, f.pending[i])
		f.Out.Enable(i)
	}
	f.Out.IdleLanes(len(f.pending), f.Out.Width())
}

func (f *FetchStage) cycleEnd() {
	taken := 0
	for i := 0; i < f.Out.Width() && i < len(f.pending); i++ {
		if f.Out.Transferred(i) {
			if i != taken {
				panic(&core.ContractError{Op: "fetch handoff", Where: f.Name(),
					Detail: "downstream accepted instructions out of order"})
			}
			taken++
		}
	}
	f.pending = f.pending[taken:]
}

// Skipped returns the instructions executed functionally by Skip (not
// flowing through the timing pipeline).
func (f *FetchStage) Skipped() uint64 { return f.skipped }

// Skip fast-forwards the functional emulator n instructions without
// emitting them to the timing pipeline, charging estCPI cycles of
// front-end stall per skipped instruction — the fast-forward half of
// sampled simulation (§3.4's "speed-enhancing techniques"). Architectural
// state (memory, registers, and warm predictor/cache state from earlier
// detailed windows) is preserved. It returns how many instructions were
// actually skipped (the program may halt first).
func (f *FetchStage) Skip(n uint64, estCPI float64) (uint64, error) {
	if estCPI < 0 {
		estCPI = 0
	}
	var skipped uint64
	for skipped < n && !f.emu.Halted && f.runErr == nil {
		if f.cfg.MaxInsts > 0 && f.seq >= f.cfg.MaxInsts {
			break
		}
		if _, err := f.emu.StepInst(); err != nil {
			f.runErr = err
			f.done = true
			return skipped, err
		}
		f.seq++
		skipped++
	}
	f.skipped += skipped
	charge := uint64(float64(skipped)*estCPI + 0.5)
	until := f.Now() + charge
	if until > f.stallUntil {
		f.stallUntil = until
	}
	if f.emu.Halted {
		f.done = true
	}
	return skipped, nil
}
