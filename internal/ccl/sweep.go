package ccl

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	core "liberty/internal/core"
	"liberty/internal/pcl"
)

// SweepCfg configures a load/latency/power characterization run — the
// classic Orion experiment.
type SweepCfg struct {
	W, H     int
	Torus    bool
	Adaptive bool
	VCs      int
	Pattern  string // uniform, transpose, complement, hotspot, neighbor, fixed
	Size     int    // flits per packet
	Cycles   uint64
	Warmup   uint64
	Seed     int64
	BufDepth int
	Power    PowerParams

	// Parallel bounds how many operating points RunSweep measures
	// concurrently (0 = GOMAXPROCS). Every point stamps its own Sim from
	// the one compiled program, so points never share mutable state.
	Parallel int

	// Metrics enables scheduler metrics collection for each point's
	// simulator, and OnSim, when set, receives each simulator right
	// after construction — the hook a live metrics endpoint uses to
	// follow a sweep from point to point. With Parallel > 1 the hook is
	// called from multiple goroutines and must be safe for that.
	Metrics bool
	OnSim   func(*core.Sim)
}

func (c *SweepCfg) fill() {
	if c.W == 0 {
		c.W = 8
	}
	if c.H == 0 {
		c.H = 8
	}
	if c.Pattern == "" {
		c.Pattern = "uniform"
	}
	if c.Size == 0 {
		c.Size = 4
	}
	if c.Cycles == 0 {
		c.Cycles = 2000
	}
	if c.Power == (PowerParams{}) {
		c.Power = DefaultPowerParams()
	}
}

// SweepPoint is one measured operating point.
type SweepPoint struct {
	OfferedRate float64 // packets/node/cycle offered
	Throughput  float64 // packets/node/cycle delivered
	MeanLatency float64 // cycles, injection to ejection
	PowerMw     float64 // total network power
	DynamicMw   float64
	LeakageMw   float64
}

// SweepProgram is the compiled form of a sweep's netlist: the mesh,
// per-node sources and sinks, compiled exactly once. Each operating point
// stamps a fresh Sim from it (MeasureRate) and only adjusts the sources'
// injection rate — no per-point Tarjan, levelization or lane election.
// A SweepProgram is safe for concurrent MeasureRate calls.
type SweepProgram struct {
	cfg  SweepCfg
	prog *core.Program

	// Structural inventory captured from the first assembly. The mesh
	// names and capacities are identical across stamps (the recipe is
	// deterministic — the core verifies this by fingerprint), so power
	// accounting reads this canonical copy's names against each stamped
	// Sim's own counters. The first assembly is a live session: it runs
	// the first measured point while other points read through nw, so
	// only fields fixed at construction (Name, Cap, the slices
	// themselves) may be read through it — never module state.
	mu    sync.Mutex
	nw    *Network
	nodes int
}

// NewSweepProgram compiles cfg's network once. The returned program
// stamps one Sim per measured operating point.
func NewSweepProgram(cfg SweepCfg) (*SweepProgram, error) {
	cfg.fill()
	sp := &SweepProgram{cfg: cfg}
	opts := []core.BuildOption{core.WithSeed(cfg.Seed)}
	if cfg.Metrics {
		opts = append(opts, core.WithMetrics())
	}
	prog, err := core.Compile(sp.assemble, opts...)
	if err != nil {
		return nil, err
	}
	sp.prog = prog
	return sp, nil
}

// Program exposes the underlying compiled core.Program.
func (sp *SweepProgram) Program() *core.Program { return sp.prog }

// assemble is the deterministic recipe, run by the compile and re-run for
// every session after the first: mesh, one source and one sink per node. Sources are created at rate 0;
// MeasureRate sets the operating point's rate on the stamped instances.
func (sp *SweepProgram) assemble(b *core.Builder) error {
	cfg := sp.cfg
	nw, err := BuildMesh(b, "net", MeshCfg{
		W: cfg.W, H: cfg.H, Torus: cfg.Torus, BufDepth: cfg.BufDepth,
		Adaptive: cfg.Adaptive, VCs: cfg.VCs,
	})
	if err != nil {
		return err
	}
	// The sweep's hotspot is node 0 at p = 0.3 (and "fixed" sends to node 0).
	pattern, err := patternByName(cfg.Pattern, nw.Nodes, patternParams{hotprob: 0.3})
	if err != nil {
		return fmt.Errorf("ccl: %w", err)
	}
	for i := 0; i < nw.Nodes; i++ {
		src, err := pcl.NewSource(fmt.Sprintf("src%d", i), core.Params{
			"rate": 0.0,
			"gen":  PacketGen(i, nw.Nodes, pattern, FixedSize(cfg.Size)),
		})
		if err != nil {
			return err
		}
		snk, err := pcl.NewSink(fmt.Sprintf("snk%d", i), nil)
		if err != nil {
			return err
		}
		b.Add(src)
		b.Add(snk)
		if err := nw.ConnectSource(b, i, src, "out"); err != nil {
			return err
		}
		if err := nw.ConnectSink(b, i, snk, "in"); err != nil {
			return err
		}
	}
	sp.mu.Lock()
	if sp.nw == nil {
		sp.nw = nw
		sp.nodes = nw.Nodes
	}
	sp.mu.Unlock()
	return nil
}

// MeasureRate takes a fresh Sim (the first call the compiled netlist, later
// calls a stamp), sets every source to the offered rate, runs the point
// and returns its measurements. Concurrent calls are data-race-free: each
// session owns its signal plane, instance state, RNG streams and
// statistics.
func (sp *SweepProgram) MeasureRate(ctx context.Context, rate float64) (SweepPoint, error) {
	sim, err := sp.prog.NewSim()
	if err != nil {
		return SweepPoint{}, err
	}
	defer sim.Close()
	for i := 0; i < sp.nodes; i++ {
		src, _ := sim.Instance(fmt.Sprintf("src%d", i)).(*pcl.Source)
		if src == nil {
			return SweepPoint{}, fmt.Errorf("ccl: sweep program has no source src%d", i)
		}
		src.SetRate(rate)
	}
	if sp.cfg.OnSim != nil {
		sp.cfg.OnSim(sim)
	}
	if err := sim.RunContext(ctx, sp.cfg.Warmup+sp.cfg.Cycles); err != nil {
		return SweepPoint{}, err
	}
	st := sim.Stats()
	var received int64
	var latSum float64
	var latN int64
	for i := 0; i < sp.nodes; i++ {
		received += st.CounterValue(fmt.Sprintf("snk%d.received", i))
		if h := st.Histogram(fmt.Sprintf("snk%d.latency", i)); h != nil && h.Count() > 0 {
			latSum += h.Sum()
			latN += h.Count()
		}
	}
	pow := MeasurePower(sim, sp.nw, sp.cfg.Power)
	pt := SweepPoint{
		OfferedRate: rate,
		Throughput:  float64(received) / float64(sim.Now()) / float64(sp.nodes),
		PowerMw:     pow.Total(),
		DynamicMw:   pow.DynamicTotal(),
		LeakageMw:   pow.LeakageTotal(),
	}
	if latN > 0 {
		pt.MeanLatency = latSum / float64(latN)
	}
	return pt, nil
}

// MeasurePoint runs one operating point and returns its measurements.
func MeasurePoint(cfg SweepCfg, rate float64) (SweepPoint, error) {
	return MeasurePointContext(context.Background(), cfg, rate)
}

// MeasurePointContext is MeasurePoint with cancellation: the run stops
// with ctx.Err() on a cycle boundary when ctx is cancelled. For more than
// one point, compile once with NewSweepProgram instead.
func MeasurePointContext(ctx context.Context, cfg SweepCfg, rate float64) (SweepPoint, error) {
	sp, err := NewSweepProgram(cfg)
	if err != nil {
		return SweepPoint{}, err
	}
	return sp.MeasureRate(ctx, rate)
}

// RunSweep measures every rate and returns the curve.
func RunSweep(cfg SweepCfg, rates []float64) ([]SweepPoint, error) {
	return RunSweepContext(context.Background(), cfg, rates)
}

// RunSweepContext compiles the network once and measures the rates as
// concurrent sessions stamped from the shared program, bounded by
// cfg.Parallel workers (0 = GOMAXPROCS). Results come back in rate order
// regardless of completion order. On error or cancellation it returns
// the curve's longest error-free prefix alongside the first error in
// rate order.
func RunSweepContext(ctx context.Context, cfg SweepCfg, rates []float64) ([]SweepPoint, error) {
	sp, err := NewSweepProgram(cfg)
	if err != nil {
		return nil, err
	}
	workers := sp.cfg.Parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rates) {
		workers = len(rates)
	}
	pts := make([]SweepPoint, len(rates))
	errs := make([]error, len(rates))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rates) {
					return
				}
				pts[i], errs[i] = sp.MeasureRate(ctx, rates[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return pts[:i], err
		}
	}
	return pts, nil
}

// PrintSweep writes the curve as the table cmd/orion and the benchmarks
// report.
func PrintSweep(w io.Writer, pts []SweepPoint) {
	fmt.Fprintf(w, "%10s %12s %12s %10s %10s %10s\n",
		"offered", "throughput", "latency", "power", "dynamic", "leakage")
	fmt.Fprintf(w, "%10s %12s %12s %10s %10s %10s\n",
		"pkt/n/cyc", "pkt/n/cyc", "cycles", "mW", "mW", "mW")
	for _, p := range pts {
		fmt.Fprintf(w, "%10.3f %12.4f %12.2f %10.3f %10.3f %10.3f\n",
			p.OfferedRate, p.Throughput, p.MeanLatency, p.PowerMw, p.DynamicMw, p.LeakageMw)
	}
}
