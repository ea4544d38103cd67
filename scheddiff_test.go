package liberty_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/pcl"
	"liberty/internal/systems"
	"liberty/lse"
)

// cycleHasher fingerprints every simulated cycle: at OnCycleEnd it hashes
// the id-ordered data/enable/ack statuses (and data values) of every
// connection. Two runs are bit-identical iff their hash sequences match.
type cycleHasher struct {
	sim    *core.Sim
	hashes []uint64
}

func (h *cycleHasher) OnCycleBegin(uint64)                             {}
func (h *cycleHasher) OnResolve(*core.Conn, core.SigKind, core.Status) {}
func (h *cycleHasher) Attach(s *core.Sim)                              { h.sim = s }

func (h *cycleHasher) OnCycleEnd(n uint64) {
	fh := fnv.New64a()
	for _, c := range h.sim.Conns() {
		v, _ := c.Data()
		fmt.Fprintf(fh, "%d:%d%d%d=%v;", c.ID(),
			c.Status(core.SigData), c.Status(core.SigEnable), c.Status(core.SigAck), v)
	}
	h.hashes = append(h.hashes, fh.Sum64())
}

// referenceOpts selects the sequential reference every row is held to.
var referenceOpts = []lse.BuildOption{lse.WithScheduler(lse.SchedulerSequential)}

// engineRows is how the differential tests run the engine against the
// reference. The cycleHasher is a tracer, and a tracer keeps every
// cluster open (so that traces are complete): the traced row resolves
// everything every cycle and must equal the reference's default/break
// counts too. The untraced rows hash the statuses after each Step
// instead, which lets clusters close — a closed cluster pays its
// default-control work when its signature is recorded, not per cycle, so
// the untraced row's counts differ while its per-cycle signal hashes and
// statistics dumps stay bit-identical. The check row evaluates every
// cluster that would have closed and fails the Step on a difference;
// nothing is skipped there, so its counts are exact again.
var engineRows = []struct {
	name        string
	traced      bool
	exactCounts bool
	opts        []lse.BuildOption
}{
	{"engine/traced", true, true, nil},
	{"engine/untraced", false, false, nil},
	{"engine/check", false, true, []lse.BuildOption{lse.WithActivityCheck()}},
}

type schedRun struct {
	hashes   []uint64
	stats    string
	defaults [3]uint64
	breaks   [3]uint64
}

// model is one netlist of the differential harness: build assembles it
// under the given options, cycles is how long it runs.
type model struct {
	name   string
	cycles uint64
	build  func(t testing.TB, opts ...lse.BuildOption) *core.Sim
}

// run steps the model under opts. A traced run fingerprints every cycle
// with the cycleHasher (statuses and data values at OnCycleEnd); an
// untraced one hashes every connection's statuses after each Step — they
// persist between cycles, the data values do not — and lets the
// statistics dump speak for the values.
func (m model) run(t *testing.T, traced bool, opts ...lse.BuildOption) schedRun {
	t.Helper()
	var h cycleHasher
	opts = append([]lse.BuildOption{lse.WithMetrics()}, opts...)
	if traced {
		opts = append(opts, lse.WithTracer(&h))
	}
	sim := m.build(t, opts...)
	if !traced {
		h.hashes = stepHashes(t, sim, int(m.cycles))
	} else if err := sim.Run(m.cycles); err != nil {
		t.Fatalf("%s: %v", m.name, err)
	}
	var st bytes.Buffer
	sim.Stats().Dump(&st)
	r := schedRun{hashes: h.hashes, stats: st.String()}
	mt := sim.Metrics()
	for i, k := range []core.SigKind{core.SigData, core.SigEnable, core.SigAck} {
		r.defaults[i] = mt.DefaultFallbacks(k)
		r.breaks[i] = mt.CycleBreaks(k)
	}
	return r
}

// statusHash fingerprints the resolution a Step left in the plane.
func statusHash(sim *core.Sim) uint64 {
	fh := fnv.New64a()
	var cell [3]byte
	for _, c := range sim.Conns() {
		cell = [3]byte{byte(c.Status(core.SigData)), byte(c.Status(core.SigEnable)), byte(c.Status(core.SigAck))}
		fh.Write(cell[:])
	}
	return fh.Sum64()
}

// diffModel holds the engine to the reference on one model, row by row.
func diffModel(t *testing.T, m model) {
	t.Helper()
	refs := map[bool]schedRun{
		true:  m.run(t, true, referenceOpts...),
		false: m.run(t, false, referenceOpts...),
	}
	for _, row := range engineRows {
		diffRuns(t, m.name, row.name, refs[row.traced], m.run(t, row.traced, row.opts...), row.exactCounts)
	}
}

// specModel loads an LSS source with seed 1 and the given parameter
// overrides (nil for none).
func specModel(name, src string, defines map[string]any, cycles uint64) model {
	return model{name, cycles, func(t testing.TB, opts ...lse.BuildOption) *core.Sim {
		t.Helper()
		sim, err := lse.LoadLSSWith(src, defines, append(opts, lse.WithSeed(1))...)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}}
}

func diffRuns(t *testing.T, what, name string, ref, got schedRun, exactCounts bool) {
	t.Helper()
	if len(ref.hashes) != len(got.hashes) {
		t.Fatalf("%s/%s: cycle count %d, want %d", what, name, len(got.hashes), len(ref.hashes))
	}
	for i := range ref.hashes {
		if ref.hashes[i] != got.hashes[i] {
			t.Fatalf("%s/%s: cycle %d signal statuses diverge from sequential", what, name, i)
		}
	}
	if ref.stats != got.stats {
		t.Fatalf("%s/%s: stats diverge from sequential:\n--- sequential\n%s--- %s\n%s",
			what, name, ref.stats, name, got.stats)
	}
	if exactCounts && (ref.defaults != got.defaults || ref.breaks != got.breaks) {
		t.Fatalf("%s/%s: default/break counts diverge: defaults %v vs %v, breaks %v vs %v",
			what, name, ref.defaults, got.defaults, ref.breaks, got.breaks)
	}
}

// TestSchedulersAgreeOnSpecs runs every shipped specification under
// every row of engineRows and demands bit-identical
// per-cycle signal statuses, statistics dumps and scheduler counts — the
// redesign's central invariant on real models (including the mesh, whose
// router loop exercises the cyclic residue and its break sites).
func TestSchedulersAgreeOnSpecs(t *testing.T) {
	matches, err := filepath.Glob("specs/*.lss")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	for _, path := range matches {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cycles := uint64(200)
		if filepath.Base(path) == "mesh.lss" {
			cycles = 60 // the 4x4 mesh is the slow one
		}
		diffModel(t, specModel(filepath.Base(path), string(src), nil, cycles))
	}
}

// TestSchedulersAgreeOnLargeMesh runs the mesh spec at 8×8, four times
// the netlist of any shipped spec. It has no residue: every loop closes
// through a marked queue or link, so the static sweep defaults every conn
// in the order the marks allow. The reference trusts no mark, so the
// traced and check rows must match its default counts exactly.
func TestSchedulersAgreeOnLargeMesh(t *testing.T) {
	src, err := os.ReadFile("specs/mesh.lss")
	if err != nil {
		t.Fatal(err)
	}
	diffModel(t, specModel("mesh.lss 8x8", string(src), map[string]any{"w": 8, "h": 8}, 60))
}

// TestSchedulersAgreeOnRandomNetlists does the same over pseudo-random
// pcl netlists: chains of queues with random depth and capacity, fanned
// between random sources and sinks.
func TestSchedulersAgreeOnRandomNetlists(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		diffModel(t, randomModel(seed))
	}
}

func randomModel(seed int64) model {
	return model{fmt.Sprintf("rand-%d", seed), 100, func(t testing.TB, opts ...lse.BuildOption) *core.Sim {
		t.Helper()
		b := core.NewBuilder(append(opts, lse.WithSeed(seed))...)
		rng := rand.New(rand.NewSource(seed))
		nChains := 2 + rng.Intn(3)
		for c := 0; c < nChains; c++ {
			src, err := pcl.NewSource(fmt.Sprintf("src%d", c), core.Params{"count": int64(20 + rng.Intn(30))})
			if err != nil {
				t.Fatal(err)
			}
			b.Add(src)
			var prev core.Instance = src
			depth := 1 + rng.Intn(4)
			for d := 0; d < depth; d++ {
				q, err := pcl.NewQueue(fmt.Sprintf("q%d_%d", c, d), core.Params{"capacity": int64(1 + rng.Intn(4))})
				if err != nil {
					t.Fatal(err)
				}
				b.Add(q)
				b.Connect(prev, "out", q, "in")
				prev = q
			}
			snk, err := pcl.NewSink(fmt.Sprintf("snk%d", c), nil)
			if err != nil {
				t.Fatal(err)
			}
			b.Add(snk)
			b.Connect(prev, "out", snk, "in")
		}
		sim, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}}
}

// passThrough declares ports but no handlers: every one of its signals
// falls to default control — the netlist shape that isolates the engine's
// default-resolution path (and the paper's claim that modules may omit
// control code entirely).
type passThrough struct{ core.Base }

func newPassThrough(name string) *passThrough {
	p := &passThrough{}
	p.Init(name, p)
	p.AddInPort("in")
	p.AddOutPort("out")
	return p
}

// buildDefaultChain wires depth handler-less modules into an acyclic
// pipeline; buildDefaultMesh wires w×h of them into a torus (one large
// cyclic SCC). Shared by the scheduler benchmarks and differential tests.
func buildDefaultChain(t testing.TB, depth int, opts ...core.BuildOption) *core.Sim {
	t.Helper()
	b := core.NewBuilder(opts...)
	first := newPassThrough("pt0")
	b.Add(first)
	var prev core.Instance = first
	for d := 1; d < depth; d++ {
		pt := newPassThrough(fmt.Sprintf("pt%d", d))
		b.Add(pt)
		b.Connect(prev, "out", pt, "in")
		prev = pt
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func buildDefaultMesh(t testing.TB, w, h int, opts ...core.BuildOption) *core.Sim {
	t.Helper()
	b := core.NewBuilder(opts...)
	grid := make([][]*passThrough, h)
	for y := range grid {
		grid[y] = make([]*passThrough, w)
		for x := range grid[y] {
			grid[y][x] = newPassThrough(fmt.Sprintf("n%d_%d", y, x))
			b.Add(grid[y][x])
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.Connect(grid[y][x], "out", grid[y][(x+1)%w], "in")
			b.Connect(grid[y][x], "out", grid[(y+1)%h][x], "in")
		}
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// buildDefaultAcyclicGrid wires w×h handler-less modules with east and
// south neighbor links but no wraparound: the 2D fan-in/fan-out shape of
// the torus without its cyclic SCC, so the whole netlist levelizes: all
// static sweep, where the torus is all residue.
func buildDefaultAcyclicGrid(t testing.TB, w, h int, opts ...core.BuildOption) *core.Sim {
	t.Helper()
	b := core.NewBuilder(opts...)
	grid := make([][]*passThrough, h)
	for y := range grid {
		grid[y] = make([]*passThrough, w)
		for x := range grid[y] {
			grid[y][x] = newPassThrough(fmt.Sprintf("g%d_%d", y, x))
			b.Add(grid[y][x])
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.Connect(grid[y][x], "out", grid[y][x+1], "in")
			}
			if y+1 < h {
				b.Connect(grid[y][x], "out", grid[y+1][x], "in")
			}
		}
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestSchedulersAgreeOnDefaultNetlists covers the default-control-bound
// shapes the BenchmarkLevelized* benchmarks run: a deep acyclic chain
// (pure static sweep) and a cyclic torus of unmarked modules (pure
// residue, with cycle breaks every cycle). Bit-identity must hold there
// too.
func TestSchedulersAgreeOnDefaultNetlists(t *testing.T) {
	// The torus keeps the residue path under test on a large model: every
	// conn, in both directions, must stay in it.
	torus := buildDefaultMesh(t, 8, 8)
	info, n := torus.Schedule(), len(torus.Conns())
	torus.Close()
	if info.ResidueConns != n || info.AckResidueConns != n {
		t.Fatalf("torus-8x8 residue = %d fwd / %d ack conns, want all %d", info.ResidueConns, info.AckResidueConns, n)
	}
	for _, m := range []model{
		{"chain-64", 50, func(t testing.TB, opts ...lse.BuildOption) *core.Sim {
			return buildDefaultChain(t, 64, opts...)
		}},
		{"torus-8x8", 50, func(t testing.TB, opts ...lse.BuildOption) *core.Sim {
			return buildDefaultMesh(t, 8, 8, opts...)
		}},
		{"grid-8x8", 50, func(t testing.TB, opts ...lse.BuildOption) *core.Sim {
			return buildDefaultAcyclicGrid(t, 8, 8, opts...)
		}},
	} {
		diffModel(t, m)
	}
}

// buildMostlyIdle wires a few live source→queue→sink chains next to a
// large passive fabric of handler-less modules — the mostly-idle shape
// the sparse scheduler's activity gating targets. The chains stay in the
// active region (their sources bear cycle-start handlers); the fabric is
// resolved once on the cycle-0 full sweep and replayed thereafter.
// Shared by the differential tests and the BenchmarkSparse* benchmarks.
func buildMostlyIdle(tb testing.TB, chains, depth, fabricW, fabricH int, rate float64, count int64, opts ...core.BuildOption) *core.Sim {
	tb.Helper()
	b := core.NewBuilder(opts...)
	for c := 0; c < chains; c++ {
		src, err := pcl.NewSource(fmt.Sprintf("src%d", c), core.Params{"rate": rate, "count": count})
		if err != nil {
			tb.Fatal(err)
		}
		b.Add(src)
		var prev core.Instance = src
		for d := 0; d < depth; d++ {
			q, err := pcl.NewQueue(fmt.Sprintf("q%d_%d", c, d), core.Params{"capacity": int64(4)})
			if err != nil {
				tb.Fatal(err)
			}
			b.Add(q)
			b.Connect(prev, "out", q, "in")
			prev = q
		}
		snk, err := pcl.NewSink(fmt.Sprintf("snk%d", c), nil)
		if err != nil {
			tb.Fatal(err)
		}
		b.Add(snk)
		b.Connect(prev, "out", snk, "in")
	}
	grid := make([][]*passThrough, fabricH)
	for y := range grid {
		grid[y] = make([]*passThrough, fabricW)
		for x := range grid[y] {
			grid[y][x] = newPassThrough(fmt.Sprintf("f%d_%d", y, x))
			b.Add(grid[y][x])
		}
	}
	for y := 0; y < fabricH; y++ {
		for x := 0; x < fabricW; x++ {
			b.Connect(grid[y][x], "out", grid[y][(x+1)%fabricW], "in")
			b.Connect(grid[y][x], "out", grid[(y+1)%fabricH][x], "in")
		}
	}
	sim, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// TestSchedulersAgreeOnBurstyNetlists covers random mostly-idle shapes —
// low-rate bursty sources feeding short chains beside a passive fabric,
// with the sources eventually exhausting so the whole netlist goes quiet.
// The activity-gated engine must replay the gated region bit-identically
// through bursts, idle stretches and full exhaustion.
func TestSchedulersAgreeOnBurstyNetlists(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chains := 1 + rng.Intn(3)
		depth := 1 + rng.Intn(3)
		w, h := 3+rng.Intn(4), 3+rng.Intn(4)
		rate := 0.02 + 0.05*rng.Float64()
		count := int64(3 + rng.Intn(8))
		seed := seed
		diffModel(t, model{fmt.Sprintf("bursty-%d", seed), 300, func(t testing.TB, opts ...lse.BuildOption) *core.Sim {
			return buildMostlyIdle(t, chains, depth, w, h, rate, count, append(opts, lse.WithSeed(seed))...)
		}})
	}
}

// paperSystems are the Figure 2(a)-(d) builders — the CMP, the sensor
// network, the torus grid and the system of systems — in the
// configurations the differential suite and the lint pin use.
var paperSystems = []struct {
	name     string
	seed     int64
	cycles   uint64
	assemble func(*core.Builder) error
}{
	{"fig2a-cmp", 1, 400, func(b *core.Builder) error {
		_, err := systems.BuildCMP(b, "cmp", systems.CMPCfg{W: 2, H: 2, RefsPer: 60, Seed: 1})
		return err
	}},
	{"fig2b-sensornet", 5, 400, func(b *core.Builder) error {
		_, err := systems.BuildSensorNet(b, "sn", 3, 20, 40)
		return err
	}},
	{"fig2c-grid", 2, 300, func(b *core.Builder) error {
		_, err := systems.BuildCMP(b, "grid", systems.CMPCfg{W: 4, H: 2, Torus: true, RefsPer: 40, Seed: 2})
		return err
	}},
	{"fig2d-sos", 9, 400, func(b *core.Builder) error {
		_, err := systems.BuildSoS(b, "sos", systems.SoSCfg{
			Clusters: 2, SensorsPer: 2, SamplesPer: 16, Threshold: 10, Batch: 4,
		})
		return err
	}},
}

// buildSystem builds one assembly recipe into a simulator.
func buildSystem(t testing.TB, seed int64, assemble func(*core.Builder) error, opts ...lse.BuildOption) *core.Sim {
	t.Helper()
	b := core.NewBuilder(append(opts, lse.WithSeed(seed))...)
	if err := assemble(b); err != nil {
		t.Fatal(err)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestSchedulersAgreeOnPaperSystems holds the Figure 2(a)-(d) builders
// to the oracle, untraced and under check mode included: these are the
// models whose clusters close in the benchmark.
func TestSchedulersAgreeOnPaperSystems(t *testing.T) {
	for _, ps := range paperSystems {
		diffModel(t, model{ps.name, ps.cycles, func(t testing.TB, opts ...lse.BuildOption) *core.Sim {
			return buildSystem(t, ps.seed, ps.assemble, opts...)
		}})
	}
}

// TestMeshScheduleGolden pins the static schedule of the shipped 4x4 mesh
// spec: every loop of the mesh closes through a marked queue or link, so
// the dependency graph has no cyclic SCC and no break site, and every conn
// is in the static sweep in both directions.
func TestMeshScheduleGolden(t *testing.T) {
	src, err := os.ReadFile("specs/mesh.lss")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := lse.LoadLSS(string(src), lse.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	info := sim.Schedule()
	if info == nil {
		t.Fatal("default build did not produce a static schedule")
	}
	if info.CyclicSCCs != 0 || len(info.BreakSites) != 0 {
		t.Fatalf("mesh cyclic SCCs = %d, break sites %v, want none", info.CyclicSCCs, info.BreakSites)
	}
	n := len(sim.Conns())
	if info.SweepConns != n || info.AckSweepConns != n || info.ResidueConns != 0 || info.AckResidueConns != 0 {
		t.Fatalf("mesh sweep %d/%d, residue %d/%d (fwd/ack), want every one of %d conns in the sweep",
			info.SweepConns, info.AckSweepConns, info.ResidueConns, info.AckResidueConns, n)
	}
}

// TestSchedulersAgreeOnTypedNetlists: random source → queue-chain → sink
// netlists where every module is passed payload "uint64" or "any" (which
// the templates ignore) and sources passed "any" an explicit uint64
// generator, so the values are uint64 end to end. The engine must match
// the reference hash for hash (cycleHasher reads each connection's value
// through Conn.Data).
func TestSchedulersAgreeOnTypedNetlists(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		diffModel(t, typedRandomModel(seed))
	}
}

func typedRandomModel(seed int64) model {
	return model{fmt.Sprintf("typed-rand-%d", seed), 100, func(t testing.TB, opts ...lse.BuildOption) *core.Sim {
		t.Helper()
		b := core.NewBuilder(append(opts, lse.WithSeed(seed))...)
		rng := rand.New(rand.NewSource(seed))
		payloads := []string{"uint64", "uint64", "any"}
		pick := func() string { return payloads[rng.Intn(len(payloads))] }
		nChains := 2 + rng.Intn(3)
		for c := 0; c < nChains; c++ {
			srcPayload := pick()
			srcParams := core.Params{"count": int64(20 + rng.Intn(30)), "payload": srcPayload}
			if srcPayload != "uint64" {
				srcParams["gen"] = pcl.GenFn(func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
					return seq, true
				})
			}
			src, err := pcl.NewSource(fmt.Sprintf("src%d", c), srcParams)
			if err != nil {
				t.Fatal(err)
			}
			b.Add(src)
			var prev core.Instance = src
			depth := 1 + rng.Intn(4)
			for d := 0; d < depth; d++ {
				q, err := pcl.NewQueue(fmt.Sprintf("q%d_%d", c, d),
					core.Params{"capacity": int64(1 + rng.Intn(4)), "payload": pick()})
				if err != nil {
					t.Fatal(err)
				}
				b.Add(q)
				b.Connect(prev, "out", q, "in")
				prev = q
			}
			snk, err := pcl.NewSink(fmt.Sprintf("snk%d", c), core.Params{"payload": pick()})
			if err != nil {
				t.Fatal(err)
			}
			b.Add(snk)
			b.Connect(prev, "out", snk, "in")
		}
		sim, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}}
}

// TestSingleWriterSessionMigrates pins what the single-writer rule does
// and does not demand: a session resolves with plain loads and stores,
// so it must never be stepped from two goroutines at once — but
// it may move between goroutines, as an lsd session does from request to
// request, when something orders the steps. Two goroutines take strict
// turns under a mutex; run under -race, and compared cycle by cycle with
// a twin stepped from one goroutine.
func TestSingleWriterSessionMigrates(t *testing.T) {
	src, err := os.ReadFile("specs/mesh.lss")
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 40
	build := func() (*core.Sim, *cycleHasher) {
		h := &cycleHasher{}
		sim, err := lse.LoadLSS(string(src), lse.WithSeed(1), lse.WithTracer(h))
		if err != nil {
			t.Fatal(err)
		}
		return sim, h
	}
	twin, ref := build()
	if err := twin.Run(cycles); err != nil {
		t.Fatal(err)
	}

	sim, got := build()
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		turn   int
		failed bool
	)
	for me := 0; me < 2; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for {
				mu.Lock()
				if sim.Now() == cycles || failed {
					mu.Unlock()
					return
				}
				if turn == me {
					if err := sim.Step(); err != nil {
						t.Error(err)
						failed = true
					}
					turn = 1 - me
				}
				mu.Unlock()
				runtime.Gosched()
			}
		}(me)
	}
	wg.Wait()
	if len(got.hashes) != len(ref.hashes) {
		t.Fatalf("migrated session hashed %d cycles, want %d", len(got.hashes), len(ref.hashes))
	}
	for i := range ref.hashes {
		if got.hashes[i] != ref.hashes[i] {
			t.Fatalf("cycle %d: migrated session diverges from its unmigrated twin", i)
		}
	}
}
