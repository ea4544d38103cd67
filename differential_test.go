package liberty_test

// differential_test.go holds the engine to the sequential reference. One
// table lists every model (specs, Figure 2 systems, the checkpoint recipe,
// default-control grids, generated netlists, the benchmark's CMPs) with
// the facts pinned on each; the harness runs each under every engine
// configuration and along every session path, and demands the reference's
// statuses cycle by cycle and its statistics at the end. A new engine
// behaviour is a row of configs or a path in diff, not a new test.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/lss"
	"liberty/internal/pcl"
	"liberty/internal/simtest"
	"liberty/internal/systems"
	"liberty/lse"
)

// model is one row of the table with its pinned columns. compile builds
// it, with its own seed and metrics on, under the options given; sessions
// run it cycles cycles, and the session paths cut at half way.
type model struct {
	name    string
	cycles  uint64
	compile func(opts ...core.BuildOption) (*core.Program, error)
	spec    string // a spec row's LSS source: the lsd wire path submits it
	// completed, where set, is the sum of the ".completed" counters the
	// reference reaches by its last cycle: a benchmark-size row, skipped
	// under the race detector.
	completed int64
	pin
}

// pin is a row's columns: the engine's cluster plan and static schedule
// as planFacts prints them (empty only on a fuzzed row, which pins
// nothing); the instance whose *core.ContractError a snapshot returns at
// every cycle, empty where the model snapshots and the snapshot paths
// run; and busy, where no cluster closes late in the run, nor after
// invalidation.
type pin struct {
	plan, refuses string
	busy          bool
}

// planFacts prints what a pin's plan holds of prog's schedule.
func planFacts(prog *core.Program) string {
	info, sizes := prog.Schedule(), map[int]int{}
	for _, n := range info.ClusterSizes {
		sizes[n]++
	}
	return fmt.Sprintf("%d clusters (largest %d), %d closable, %d never; sizes %v; seeds %d; glue %v; %d cyclic SCCs, breaks %v; of %d conns sweep %d/%d, residue %d/%d",
		info.Clusters, info.LargestCluster, info.ClosableClusters, info.NoInputClusters, sizes, info.AlwaysActive, info.GlueInstances,
		info.CyclicSCCs, info.BreakSites, prog.Conns(), info.SweepConns, info.AckSweepConns, info.ResidueConns, info.AckResidueConns)
}

// models builds the table; every specs/*.lss must have a row.
func models(t testing.TB) []model {
	t.Helper()
	spec := func(file string, cycles uint64, p pin) model {
		src, err := os.ReadFile(filepath.Join("specs", file))
		if err != nil {
			t.Fatal(err)
		}
		return lssRow(file, string(src), nil, cycles, p)
	}
	mesh := spec("mesh.lss", 60, pin{"80 clusters (largest 35), 80 closable, 0 never; sizes map[1:64 15:4 24:8 35:4]; seeds 128; glue []; 0 cyclic SCCs, breaks []; of 456 conns sweep 456/456, residue 0/0", "net/net/l0_e_1", false}) // fewer cycles: the slow spec
	mesh8 := lssRow("mesh.lss 8x8", mesh.spec, map[string]any{"w": 8, "h": 8}, 60, pin{"352 clusters (largest 35), 352 closable, 0 never; sizes map[1:288 15:4 24:24 35:36]; seeds 576; glue []; 0 cyclic SCCs, breaks []; of 2184 conns sweep 2184/2184, residue 0/0", "net/net/l0_e_1", false})
	ms := []model{
		spec("bus.lss", 200, pin{"2 clusters (largest 9), 2 closable, 0 never; sizes map[5:1 9:1]; seeds 5; glue []; 0 cyclic SCCs, breaks []; of 14 conns sweep 14/14, residue 0/0", "bus/net/link", false}),
		mesh, mesh8,
		spec("pipeline.lss", 200, pin{"7 clusters (largest 1), 7 closable, 0 never; sizes map[1:7]; seeds 7; glue []; 0 cyclic SCCs, breaks []; of 7 conns sweep 7/7, residue 0/0", "", true}),
		spec("quickstart.lss", 200, pin{"2 clusters (largest 1), 2 closable, 0 never; sizes map[1:2]; seeds 2; glue []; 0 cyclic SCCs, breaks []; of 2 conns sweep 2/2, residue 0/0", "", false}),
		spec("sensornet.lss", 200, pin{"2 clusters (largest 6), 2 closable, 0 never; sizes map[4:1 6:1]; seeds 4; glue []; 0 cyclic SCCs, breaks []; of 10 conns sweep 10/10, residue 0/0", "air", false}),
	}
	paths, err := filepath.Glob("specs/*.lss")
	for _, path := range paths {
		if !slices.ContainsFunc(ms, func(m model) bool { return m.name == filepath.Base(path) }) {
			err = errors.Join(err, fmt.Errorf("%s has no row", path))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range paperSystems {
		ms = append(ms, recipe(ps.name, ps.cycles, ps.seed, ps.pin, ps.assemble))
	}
	return append(ms,
		lssRow("ckpt", ckptSpec, nil, 140, pin{"5 clusters (largest 3), 5 closable, 0 never; sizes map[1:4 3:1]; seeds 6; glue []; 0 cyclic SCCs, breaks []; of 7 conns sweep 7/7, residue 0/0", "", false}),
		recipe("ckpt-island", 140, 7, pin{"6 clusters (largest 3), 6 closable, 0 never; sizes map[1:4 2:1 3:1]; seeds 6; glue []; 1 cyclic SCCs, breaks [island0_0.out[0]->island0_1.in[0]]; of 9 conns sweep 7/7, residue 2/2", "", false}, func(b *core.Builder) error {
			f, err := lss.Parse(ckptSpec)
			if err == nil {
				err = lss.NewElaborator(b).Elaborate(f)
			}
			return errors.Join(err, grid(b, "island", 2, 1, true)) // a ring no start handler reaches
		}),
		recipe("chain-64", 50, 1, pin{"1 clusters (largest 63), 1 closable, 0 never; sizes map[63:1]; seeds 0; glue []; 0 cyclic SCCs, breaks []; of 63 conns sweep 63/63, residue 0/0", "", false}, func(b *core.Builder) error { return grid(b, "c", 64, 1, false) }),
		recipe("grid-8x8", 50, 1, pin{"1 clusters (largest 112), 1 closable, 0 never; sizes map[112:1]; seeds 0; glue []; 0 cyclic SCCs, breaks []; of 112 conns sweep 112/112, residue 0/0", "", false}, func(b *core.Builder) error { return grid(b, "g", 8, 8, false) }),
		recipe("torus-8x8", 50, 1, pin{"1 clusters (largest 128), 1 closable, 0 never; sizes map[128:1]; seeds 0; glue []; 1 cyclic SCCs, breaks [t0_0.out[0]->t0_1.in[0]]; of 128 conns sweep 0/0, residue 128/128", "", false}, func(b *core.Builder) error { return grid(b, "t", 8, 8, true) }),
		recipe("fig2b-sensornet64", 100, 5, pin{"66 clusters (largest 65), 66 closable, 0 never; sizes map[2:64 64:1 65:1]; seeds 129; glue []; 0 cyclic SCCs, breaks []; of 257 conns sweep 257/257, residue 0/0", "sn/air", false}, func(b *core.Builder) error {
			_, err := systems.BuildSensorNet(b, "sn", 64, 20, 40)
			return err
		}),
		recipe("rand-1", 100, 1, pin{"10 clusters (largest 36), 10 closable, 0 never; sizes map[1:6 2:3 36:1]; seeds 9; glue []; 1 cyclic SCCs, breaks [f0_0.out[0]->f0_1.in[0]]; of 48 conns sweep 12/12, residue 36/36", "", false}, netlist(stream(0, 1))),
		recipe("rand-2", 100, 1, pin{"13 clusters (largest 2), 13 closable, 0 never; sizes map[1:11 2:2]; seeds 14; glue []; 0 cyclic SCCs, breaks []; of 15 conns sweep 15/15, residue 0/0", "", false}, netlist(stream(0, 2))),
		recipe("rand-3", 100, 1, pin{"6 clusters (largest 2), 6 closable, 0 never; sizes map[1:4 2:2]; seeds 7; glue []; 0 cyclic SCCs, breaks []; of 8 conns sweep 8/8, residue 0/0", "", false}, netlist(stream(0, 3))),
		recipe("rand-4", 100, 1, pin{"10 clusters (largest 18), 10 closable, 0 never; sizes map[1:8 2:1 18:1]; seeds 9; glue []; 1 cyclic SCCs, breaks [f0_0.out[0]->f0_1.in[0]]; of 28 conns sweep 10/10, residue 18/18", "", false}, netlist(stream(0, 4))),
		recipe("rand-5", 100, 1, pin{"5 clusters (largest 24), 5 closable, 0 never; sizes map[1:3 2:1 24:1]; seeds 4; glue []; 1 cyclic SCCs, breaks [f0_0.out[0]->f0_1.in[0]]; of 29 conns sweep 5/5, residue 24/24", "", false}, netlist(stream(0, 5))),
		recipe("rand-6", 100, 1, pin{"6 clusters (largest 1), 6 closable, 0 never; sizes map[1:6]; seeds 8; glue []; 0 cyclic SCCs, breaks []; of 6 conns sweep 6/6, residue 0/0", "", false}, netlist(stream(0, 6))),
		recipe("rand-7", 100, 1, pin{"12 clusters (largest 2), 12 closable, 0 never; sizes map[1:10 2:2]; seeds 15; glue []; 0 cyclic SCCs, breaks []; of 14 conns sweep 14/14, residue 0/0", "", false}, netlist(stream(0, 7))),
		recipe("rand-8", 100, 1, pin{"4 clusters (largest 2), 4 closable, 0 never; sizes map[1:3 2:1]; seeds 5; glue []; 0 cyclic SCCs, breaks []; of 5 conns sweep 5/5, residue 0/0", "", false}, netlist(stream(0, 8))),
		recipe("bursty-1", 300, 1, pin{"10 clusters (largest 18), 10 closable, 0 never; sizes map[1:9 18:1]; seeds 10; glue []; 1 cyclic SCCs, breaks [f0_0.out[0]->f0_1.in[0]]; of 27 conns sweep 9/9, residue 18/18", "", false}, netlist(stream(1, 1))),
		recipe("bursty-2", 300, 1, pin{"14 clusters (largest 18), 14 closable, 0 never; sizes map[1:11 2:2 18:1]; seeds 15; glue []; 1 cyclic SCCs, breaks [f0_0.out[0]->f0_1.in[0]]; of 33 conns sweep 15/15, residue 18/18", "", false}, netlist(stream(1, 2))),
		recipe("bursty-3", 300, 1, pin{"5 clusters (largest 36), 5 closable, 0 never; sizes map[1:2 2:1 3:1 36:1]; seeds 5; glue []; 1 cyclic SCCs, breaks [f0_0.out[0]->f0_1.in[0]]; of 43 conns sweep 7/7, residue 36/36", "", false}, netlist(stream(1, 3))),
		recipe("bursty-4", 300, 1, pin{"10 clusters (largest 18), 10 closable, 0 never; sizes map[1:8 2:1 18:1]; seeds 11; glue []; 1 cyclic SCCs, breaks [f0_0.out[0]->f0_1.in[0]]; of 28 conns sweep 10/10, residue 18/18", "", false}, netlist(stream(1, 4))),
		recipe("bursty-5", 300, 1, pin{"4 clusters (largest 24), 4 closable, 0 never; sizes map[1:2 2:1 24:1]; seeds 3; glue []; 1 cyclic SCCs, breaks [f0_0.out[0]->f0_1.in[0]]; of 28 conns sweep 4/4, residue 24/24", "", false}, netlist(stream(1, 5))),
		recipe("bursty-6", 300, 1, pin{"5 clusters (largest 30), 5 closable, 0 never; sizes map[1:4 30:1]; seeds 6; glue []; 1 cyclic SCCs, breaks [f0_0.out[0]->f0_1.in[0]]; of 34 conns sweep 4/4, residue 30/30", "", false}, netlist(stream(1, 6))),
		// Figures 2(a) and 2(c) at the cmp_coherence benchmark's sizes, for
		// the cycles they take to complete every reference.
		cmpRow("bench-fig2a", 6445, pin{"112 clusters (largest 37), 112 closable, 0 never; sizes map[1:80 3:16 17:4 26:8 37:4]; seeds 160; glue []; 0 cyclic SCCs, breaks []; of 552 conns sweep 552/552, residue 0/0", "cmp/mesh/l0_e_1", false}, systems.CMPCfg{W: 4, H: 4, RefsPer: 200, Think: 2, SharedPct: 30, Seed: 1}),
		cmpRow("bench-fig2c", 6890, pin{"64 clusters (largest 37), 64 closable, 0 never; sizes map[1:48 3:8 37:8]; seeds 96; glue []; 0 cyclic SCCs, breaks []; of 368 conns sweep 368/368, residue 0/0", "cmp/mesh/l0_e_1", false}, systems.CMPCfg{W: 4, H: 2, RefsPer: 400, Think: 2, SharedPct: 30, Torus: true, Seed: 1}),
	)
}

func cmpRow(name string, cycles uint64, p pin, cfg systems.CMPCfg) model {
	m := recipe(name, cycles, cfg.Seed, p, func(b *core.Builder) error {
		_, err := systems.BuildCMP(b, "cmp", cfg)
		return err
	})
	m.completed = int64(cfg.W * cfg.H * cfg.RefsPer)
	return m
}

func lssRow(name, src string, defines map[string]any, cycles uint64, p pin) model {
	m := model{name: name, cycles: cycles, pin: p, compile: func(opts ...core.BuildOption) (*core.Program, error) {
		return lse.CompileLSSWith(src, defines, append(opts, lse.WithSeed(1), lse.WithMetrics())...)
	}}
	if defines == nil {
		m.spec = src
	}
	return m
}

func recipe(name string, cycles uint64, seed int64, p pin, assemble func(*core.Builder) error) model {
	return model{name: name, cycles: cycles, pin: p, compile: func(opts ...core.BuildOption) (*core.Program, error) {
		return core.Compile(assemble, append(opts, core.WithSeed(seed), core.WithMetrics())...)
	}}
}

// stream is a generated row's byte stream: first (0 for saturating
// sources, 1 for bursty ones), then 31 pseudo-random bytes from seed.
func stream(first byte, seed int64) []byte {
	data := []byte{first, 31: 0}
	rand.New(rand.NewSource(seed)).Read(data[1:])
	return data
}

// ckptSpec is the checkpoint recipe, internal/simd's test spec plus an
// independent chain: two rate-gated sources competing through an arbiter
// into a queue → delay → sink pipeline. Every pcl template with state is
// on the path, and the sub-unit rates keep the random streams hot, so a
// restore must set every stream's state exactly.
const ckptSpec = `let r0 = 0.7;
let r1 = 0.45;
instance src0 : pcl.source(rate = r0);
instance src1 : pcl.source(rate = r1);
instance arb  : pcl.arbiter();
instance q    : pcl.queue(capacity = 3);
instance dly  : pcl.delay(latency = 2);
instance snk  : pcl.sink();
instance tsrc : pcl.source(rate = 0.6);
instance tq   : pcl.queue(capacity = 2);
instance tsnk : pcl.sink();

src0.out -> arb.in;
src1.out -> arb.in;
arb.out  -> q.in;
q.out    -> dly.in;
dly.out  -> snk.in;
tsrc.out -> tq.in;
tq.out   -> tsnk.in;
`

// paperSystems are the Figure 2(a)-(d) builders — the CMP, the sensor
// network, the torus grid and the system of systems — in the
// configurations the table and the lint pin use.
var paperSystems = []struct {
	name     string
	seed     int64
	cycles   uint64
	pin      pin
	assemble func(*core.Builder) error
}{
	{"fig2a-cmp", 1, 400, pin{"24 clusters (largest 17), 24 closable, 0 never; sizes map[1:16 3:4 17:4]; seeds 32; glue []; 0 cyclic SCCs, breaks []; of 96 conns sweep 96/96, residue 0/0", "cmp/mesh/l0_e_1", false}, func(b *core.Builder) error {
		_, err := systems.BuildCMP(b, "cmp", systems.CMPCfg{W: 2, H: 2, RefsPer: 60, Seed: 1})
		return err
	}},
	{"fig2b-sensornet", 5, 400, pin{"5 clusters (largest 4), 5 closable, 0 never; sizes map[2:3 3:1 4:1]; seeds 7; glue []; 0 cyclic SCCs, breaks []; of 13 conns sweep 13/13, residue 0/0", "sn/air", false}, func(b *core.Builder) error {
		_, err := systems.BuildSensorNet(b, "sn", 3, 20, 40)
		return err
	}},
	{"fig2c-grid", 2, 300, pin{"64 clusters (largest 37), 64 closable, 0 never; sizes map[1:48 3:8 37:8]; seeds 96; glue []; 0 cyclic SCCs, breaks []; of 368 conns sweep 368/368, residue 0/0", "grid/mesh/l0_e_1", false}, func(b *core.Builder) error {
		_, err := systems.BuildCMP(b, "grid", systems.CMPCfg{W: 4, H: 2, Torus: true, RefsPer: 40, Seed: 2})
		return err
	}},
	{"fig2d-sos", 9, 400, pin{"25 clusters (largest 15), 23 closable, 2 never; sizes map[1:10 2:8 3:2 6:1 14:1 15:3]; seeds 36; glue []; 0 cyclic SCCs, breaks []; of 97 conns sweep 97/97, residue 0/0", "sos/backbone/l0_e_1", false}, func(b *core.Builder) error {
		_, err := systems.BuildSoS(b, "sos", systems.SoSCfg{Clusters: 2, SensorsPer: 2, SamplesPer: 16, Threshold: 10, Batch: 4})
		return err
	}},
}

// passThrough declares ports but no handlers, so every one of its signals
// falls to default control: the paper's module that omits control code.
type passThrough struct{ core.Base }

func newPassThrough(name string) *passThrough {
	p := &passThrough{}
	p.Init(name, p)
	p.AddInPort("in")
	p.AddOutPort("out")
	return p
}

// grid wires w×h pass-throughs, each to its east and south neighbour,
// wrapping round along every dimension longer than one when wrap is set:
// grid(64, 1, false) is a chain, grid(8, 8, false) levelizes whole, and
// grid(8, 8, true) is one cyclic SCC, all residue.
func grid(b *core.Builder, prefix string, w, h int, wrap bool) error {
	g := make([]*passThrough, w*h)
	for i := range g {
		g[i] = newPassThrough(fmt.Sprintf("%s%d_%d", prefix, i/w, i%w))
		b.Add(g[i])
	}
	var errs []error
	for i, p := range g {
		x, y := i%w, i/w
		if x+1 < w || wrap && w > 1 {
			errs = append(errs, b.Connect(p, "out", g[y*w+(x+1)%w], "in"))
		}
		if y+1 < h || wrap && h > 1 {
			errs = append(errs, b.Connect(p, "out", g[(y+1)%h*w+x], "in"))
		}
	}
	return errors.Join(errs...)
}

// readySink decides at cycle start, as a registered ready signal does, to
// accept on every period'th cycle. No library template drives an ack from
// its start handler; this one puts such a cell on a cluster's frontier.
type readySink struct {
	core.Base
	in     *core.Port
	period uint64
}

func newReadySink(name string, period uint64) *readySink {
	s := &readySink{period: period}
	s.Init(name, s)
	s.Checkpoint()
	s.in = s.AddInPort("in", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	s.OnCycleStart(func() {
		if s.Now()%s.period == 0 {
			s.in.Ack(0)
		} else {
			s.in.Nack(0)
		}
	})
	return s
}

// netlist assembles a netlist from a byte stream, one decision per byte
// (a spent stream reads zeros): saturating or bursty sources — a low rate
// and a short count, so the netlist goes quiet — feeding one to four
// chains of queues, delay lines or clock gates into a pcl.sink or a
// readySink, and beside them a passive torus of 3 to 6 a side: always
// where the sources are bursty, so a quiet netlist keeps a cyclic SCC and
// residue for closing clusters to replay, and otherwise when both its
// sides exceed one.
func netlist(data []byte) func(*core.Builder) error {
	return func(b *core.Builder) error {
		d, prev, errs := data, core.Instance(nil), []error(nil)
		next := func(n int) int {
			if len(d) == 0 {
				return 0
			}
			v := int(d[0]) % n
			d = d[1:]
			return v
		}
		add := func(inst core.Instance, err error) { // and wire prev to it
			if err == nil {
				b.Add(inst)
				if prev != nil {
					err = b.Connect(prev, "out", inst, "in")
				}
				prev = inst
			}
			errs = append(errs, err)
		}
		bursty := next(2) == 1
		for c := range 1 + next(4) {
			p := core.Params{"count": int64(20 + next(30))}
			if bursty {
				p = core.Params{"rate": 0.02 + 0.05*float64(next(256))/255, "count": int64(3 + next(8))}
			}
			prev = nil
			add(pcl.NewSource(fmt.Sprintf("src%d", c), p))
			for s := range 1 + next(4) {
				name := fmt.Sprintf("s%d_%d", c, s)
				switch next(4) {
				case 0:
					add(pcl.NewDelay(name, core.Params{"latency": int64(1 + next(3))}))
				case 1:
					add(pcl.NewClockGate(name, core.Params{"divisor": int64(2 + next(3))}))
				default:
					add(pcl.NewQueue(name, core.Params{"capacity": int64(1 + next(4))}))
				}
			}
			if name := fmt.Sprintf("snk%d", c); next(3) == 0 {
				add(newReadySink(name, uint64(2+next(3))), nil)
			} else {
				add(pcl.NewSink(name, nil))
			}
		}
		if w, h := next(7), next(7); bursty || w > 1 && h > 1 {
			errs = append(errs, grid(b, "f", max(w, 3), max(h, 3), true))
		}
		return errors.Join(errs...)
	}
}

// configs are the ways a model runs, the reference first. The untraced
// row is the engine program's first option-less session, handed over by
// Compile. A tracer keeps every cluster open, so only the traced rows
// hash through one (statuses and data values); every row hashes the
// statuses after each Step. Where nothing is skipped — traced, and check,
// which evaluates every cluster the engine would have closed and fails
// the Step on a difference — the default and break counts are exact.
var configs = []struct {
	name          string
	traced, exact bool
	opts          []core.BuildOption
}{
	{"reference", true, true, nil},
	{"untraced", false, false, nil},
	{"traced", true, true, nil},
	{"check", false, true, []core.BuildOption{core.WithActivityCheck()}},
}

// run is what a session left: the status hash after each Step, each
// cycle's full hash when traced, its statistics and default/break counts.
type run struct {
	status, full []uint64
	traced       bool
	stats        string
	counts       [6]uint64
}

// play stamps a session of prog, or restores snap into one, hashing each
// cycle through a tracer when traced, and steps it to cycle until,
// calling at (if set) before every Step.
func play(t *testing.T, prog *core.Program, snap []byte, traced bool, until uint64, at func(*core.Sim), opts ...core.BuildOption) (run, *core.Sim) {
	t.Helper()
	h := &simtest.CycleHasher{}
	if traced {
		opts = append(opts[:len(opts):len(opts)], core.WithTracer(h))
	}
	s, err := (*core.Sim)(nil), error(nil)
	if snap == nil {
		s, err = prog.NewSim(opts...)
	} else {
		s, err = prog.Restore(bytes.NewReader(snap), opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	r := run{traced: traced}
	for s.Now() < until {
		if at != nil {
			at(s)
		}
		r.status = append(r.status, simtest.StepHashes(t, s, 1)...)
	}
	var st bytes.Buffer
	s.Stats().Dump(&st)
	r.full, r.stats = h.Hashes, st.String()
	if mt := s.Metrics(); mt != nil {
		for k := range 3 {
			r.counts[k], r.counts[3+k] = mt.DefaultFallbacks(core.SigKind(k)), mt.CycleBreaks(core.SigKind(k))
		}
	}
	return r, s
}

// same holds got, a run from cycle from on, to want, the reference's:
// its statuses, and where got was traced its data values, every cycle.
func same(t *testing.T, what string, want run, from uint64, got run, exact bool) {
	t.Helper()
	if c := diverges(want.status[from:], got.status); c >= 0 {
		t.Fatalf("%s: cycle %d statuses diverge from the reference's", what, from+uint64(c))
	}
	if c := diverges(want.full[from:], got.full); got.traced && c >= 0 {
		t.Fatalf("%s: cycle %d statuses or data diverge from the reference's", what, from+uint64(c))
	}
	if got.stats != want.stats {
		t.Fatalf("%s: statistics diverge:\n--- reference\n%s--- %s\n%s", what, want.stats, what, got.stats)
	}
	if exact && got.counts != want.counts {
		t.Fatalf("%s: default/break counts %v, the reference's %v", what, got.counts, want.counts)
	}
}

// diverges returns the first index at which a and b differ, or -1.
func diverges(a, b []uint64) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// snapshot takes sim's snapshot or, where refuses names an instance,
// demands the *core.ContractError that names it.
func snapshot(t *testing.T, sim *core.Sim, refuses string) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := sim.Snapshot(&buf)
	var ce *core.ContractError
	if refuses == "" && err != nil || refuses != "" && (!errors.As(err, &ce) || ce.Where != refuses) {
		t.Fatalf("snapshot at cycle %d: %v; want refusal at %q", sim.Now(), err, refuses)
	}
	return buf.Bytes()
}

// programs compiles m for the reference and the engine.
func programs(t *testing.T, m model) (ref, eng *core.Program) {
	t.Helper()
	ref, err := m.compile(core.WithScheduler(core.SchedulerSequential))
	eng, err2 := m.compile()
	if err := errors.Join(err, err2); err != nil {
		t.Fatal(err)
	}
	return ref, eng
}

// agree runs m under every configuration, holds each to the reference's
// run and returns that run. The reference and the handed-over session
// snapshot at cycles 0, 1 and k, keeping k's; a model that cannot
// checkpoint is refused the same way at each.
func agree(t *testing.T, m model, ref, eng *core.Program, k uint64) (want run, snaps [2][]byte) {
	t.Helper()
	for i, c := range configs {
		prog, at := eng, func(sim *core.Sim) {
			if n := sim.Now(); i < len(snaps) && (n <= 1 || n == k) {
				snaps[i] = snapshot(t, sim, m.refuses)
			}
		}
		if i == 0 {
			prog = ref
		}
		got, sim := play(t, prog, nil, c.traced, m.cycles, at, c.opts...)
		if i > 0 {
			same(t, c.name, want, 0, got, c.exact)
			continue
		}
		want = got
		var done int64
		for _, name := range sim.Stats().Names() {
			if strings.HasSuffix(name, ".completed") {
				done += sim.Stats().CounterValue(name)
			}
		}
		if done != m.completed && m.completed != 0 {
			t.Fatalf("%d references completed by cycle %d, want %d", done, m.cycles, m.completed)
		}
	}
	return want, snaps
}

// invalidate runs a re-stamped session of eng, its activity invalidated
// at k, and holds it to want: the next cycle is a full sweep that closes
// nothing, the one after re-signs, and clusters close again from the one
// after that. It returns the session and the cluster closings it counted
// by cycle k.
func invalidate(t *testing.T, eng *core.Program, m model, want run, k uint64) (*core.Sim, uint64) {
	t.Helper()
	var closed uint64
	got, sim := play(t, eng, nil, false, m.cycles, func(sim *core.Sim) {
		switch n := sim.Metrics().ClosedClusterCycles(); sim.Now() {
		case k:
			closed = n
			sim.InvalidateActivity()
		case k + 2:
			if n != closed {
				t.Fatalf("%d clusters closed on the two cycles after InvalidateActivity", n-closed)
			}
		}
	})
	same(t, "re-stamped, invalidated", want, 0, got, false)
	return sim, closed
}

// diff runs one model through every configuration and path.
func diff(t *testing.T, m model) {
	if m.completed != 0 && raceEnabled {
		t.Skip("benchmark-size runs are too slow under the race detector")
	}
	ref, eng := programs(t, m)
	checkPlan(t, m, eng)
	k := m.cycles / 2
	want, snaps := agree(t, m, ref, eng, k)
	sim, closed := invalidate(t, eng, m, want, k)
	if m.plan != "" && !m.busy && sim.Metrics().ClosedClusterCycles() == closed {
		t.Fatal("no cluster closed again after InvalidateActivity")
	}
	if m.refuses != "" {
		return
	}

	// Each snapshot restores into the same engine and across engines both
	// ways: under the reference and the engine traced (statuses and data),
	// and under the engine untraced (clusters close).
	for i, snap := range snaps {
		for j, prog := range []*core.Program{ref, eng, eng} {
			got, _ := play(t, prog, snap, j < 2, m.cycles, nil)
			same(t, fmt.Sprintf("%s snapshot restored under %s, traced %v", configs[i].name, prog.Scheduler(), j < 2), want, k, got, false)
		}
	}
	if m.spec == "" {
		return
	}

	// The lsd wire: run and snapshot over /v1, restore locally.
	ctx, client := context.Background(), newServeBench(t)
	info, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{Spec: m.spec, Name: m.name})
	sess, snap := lse.SessionInfo{}, []byte(nil)
	if err == nil {
		sess, err = client.NewSession(ctx, info.ID, lse.CreateSessionRequest{Seed: 1})
	}
	if err == nil {
		_, err = client.Run(ctx, sess.ID, k)
	}
	if err == nil {
		snap, err = client.Snapshot(ctx, sess.ID)
	}
	if err != nil {
		t.Fatal(err)
	}
	got, _ := play(t, eng, snap, false, m.cycles, nil)
	same(t, "snapshot over /v1 restored locally", want, k, got, false)
}

// checkPlan holds eng's plan to m's pin.
func checkPlan(t *testing.T, m model, eng *core.Program) {
	t.Helper()
	if got := planFacts(eng); m.plan != "" && got != m.plan {
		t.Errorf("%s plan: %s\n  want %s", m.name, got, m.plan)
	}
}

// TestDifferential runs the table.
func TestDifferential(t *testing.T) {
	for _, m := range models(t) {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			diff(t, m)
		})
	}
}

// FuzzNetlist runs the harness on the netlists the generator builds from
// arbitrary byte streams.
func FuzzNetlist(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		diff(t, recipe("fuzz", 120, 1, pin{}, netlist(data)))
	})
}

// FuzzSnapshot holds Program.Restore to its contract on arbitrary bytes:
// an error, or a session whose own Snapshot succeeds — never a panic.
// The seeds are real snapshots of the pipeline.lss and ckpt rows at
// cycles 0, 1 and 20.
func FuzzSnapshot(f *testing.F) {
	var progs []*core.Program
	for _, name := range []string{"pipeline.lss", "ckpt"} {
		prog, err := row(f, name).compile()
		if err != nil {
			f.Fatal(err)
		}
		progs = append(progs, prog)
		for _, cycles := range []uint64{0, 1, 20} {
			sim, err := prog.NewSim()
			if err != nil {
				f.Fatal(err)
			}
			var buf bytes.Buffer
			if err := errors.Join(sim.Run(cycles), sim.Snapshot(&buf)); err != nil {
				f.Fatal(err)
			}
			sim.Close()
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, prog := range progs {
			sim, err := prog.Restore(bytes.NewReader(data))
			if err != nil {
				continue
			}
			err = sim.Snapshot(io.Discard)
			sim.Close()
			if err != nil {
				t.Fatalf("a restored session cannot be snapshotted: %v", err)
			}
		}
	})
}

// row is the table's row called name.
func row(t testing.TB, name string) model {
	t.Helper()
	for _, m := range models(t) {
		if m.name == name {
			return m
		}
	}
	t.Fatalf("the table has no row %q", name)
	return model{}
}

// checkPlans holds the named rows' plans to their pins.
func checkPlans(t *testing.T, names ...string) {
	for _, name := range names {
		m := row(t, name)
		eng, err := m.compile()
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, m, eng)
	}
}

// TestSchedulersAgreeOnSpecs holds every shipped specification, under
// every engine configuration, to the reference: per-cycle statuses,
// statistics and, where nothing is skipped, default/break counts — the
// central invariant on real models.
func TestSchedulersAgreeOnSpecs(t *testing.T) {
	for _, m := range models(t) {
		if m.spec != "" {
			t.Run(m.name, func(t *testing.T) {
				ref, eng := programs(t, m)
				agree(t, m, ref, eng, m.cycles/2)
			})
		}
	}
}

// TestMeshScheduleGolden pins the static schedule of the shipped 4x4 mesh
// spec, its row's plan: every loop of the mesh closes through a marked
// queue or link, so the dependency graph has no cyclic SCC and no break
// site, and every conn is in the static sweep in both directions.
func TestMeshScheduleGolden(t *testing.T) { checkPlans(t, "mesh.lss") }

// TestClusterPlanPaperModels pins the combinational clusters of the
// models the activity numbers are quoted on, their rows' plans. The 4x4
// mesh is one cluster per router (a queue.out boundary, a route, an
// arbiter and a link.in or sink.in boundary per port: 35, 24 or 15 conns
// for 5, 4 or 3 ports) plus one single-conn cluster per router input. The
// sensor network is one cluster around the shared channel plus one per
// node's front end; at 64 sensors the marked channel cuts it in two, the
// 64 transmit conns on one side and the 65 receive conns (64 nodes and
// the base station) on the other. In Figures 2(a) and 2(c), at the
// table's sizes and the benchmark's, the marked trace cores and directory
// controllers cut every core/cache and controller/network loop: no
// residue, and no instance glues a cluster.
func TestClusterPlanPaperModels(t *testing.T) {
	checkPlans(t, "mesh.lss", "sensornet.lss", "fig2b-sensornet64", "fig2a-cmp", "fig2c-grid", "bench-fig2a", "bench-fig2c")
}

// TestCheckpointRestoreBitIdentical is the checkpoint oracle on the
// checkpoint recipe: run a session to cycle k, snapshot, restore into a
// fresh session and run the remainder. The restored run's per-cycle
// statuses and data and its final statistics must be those of an
// uninterrupted run — under the reference and the engine. Subtests are
// named any/<engine>: the payloads are boxed (any).
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	m := row(t, "ckpt")
	k := m.cycles / 2
	for _, kind := range []core.SchedulerKind{core.SchedulerSequential, core.SchedulerSparse} {
		t.Run("any/"+kind.String(), func(t *testing.T) {
			prog, err := m.compile(core.WithScheduler(kind))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := play(t, prog, nil, true, m.cycles, nil)
			pre, sim := play(t, prog, nil, true, k, nil)
			if c := diverges(want.full[:k], pre.full); c >= 0 {
				t.Fatalf("cycle %d: the run to the snapshot diverges from the uninterrupted one", c)
			}
			// same also demands that the restored run resume at k: one
			// status hash and one full hash for each cycle from k on.
			got, _ := play(t, prog, snapshot(t, sim, ""), true, m.cycles, nil)
			same(t, "restored", want, k, got, false)
		})
	}
}

// TestActivityLifecycle walks the events that drop idle signatures on the
// checkpoint recipe, with clusters closing: an engine snapshot restored
// into the engine and into the reference, and InvalidateActivity. Every
// cycle's statuses and the final statistics stay the reference's.
func TestActivityLifecycle(t *testing.T) {
	m := row(t, "ckpt")
	ref, eng := programs(t, m)
	k := m.cycles / 2
	want, _ := play(t, ref, nil, true, m.cycles, nil)
	sim, closed := invalidate(t, eng, m, want, k)
	if closed == 0 {
		t.Fatalf("no cluster closed by cycle %d; the test would compare full sweeps", k)
	}
	if sim.Metrics().ClosedClusterCycles() == closed {
		t.Fatal("no cluster closed again after InvalidateActivity")
	}
	_, sim = play(t, eng, nil, false, k, nil)
	snap := snapshot(t, sim, "")
	for _, prog := range []*core.Program{eng, ref} {
		got, restored := play(t, prog, snap, false, m.cycles, nil)
		same(t, "engine snapshot restored under "+prog.Scheduler().String(), want, k, got, false)
		if prog == eng && restored.Metrics().ClosedClusterCycles() == 0 {
			t.Fatal("the restored engine session closed no cluster")
		}
	}
}

// TestSingleWriterSessionMigrates: a session must never be stepped from
// two goroutines at once, but it may move between them, as an lsd session
// does between requests, when something orders the steps. Two goroutines
// take strict turns under a mutex (run under -race), and the session must
// hash cycle by cycle like a twin stepped from one goroutine.
func TestSingleWriterSessionMigrates(t *testing.T) {
	_, prog := programs(t, row(t, "mesh.lss"))
	const cycles = 40
	twin, _ := play(t, prog, nil, true, cycles, nil)
	h := &simtest.CycleHasher{}
	sim, err := prog.NewSim(lse.WithTracer(h))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	turn, failed := 0, false // a failed Step ends both goroutines
	for me := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; runtime.Gosched() {
				mu.Lock()
				if done = failed || sim.Now() == cycles; turn == me && !done {
					if err := sim.Step(); err != nil {
						t.Error(err)
						failed = true
					}
					turn = 1 - me
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if c := diverges(twin.full, h.Hashes); c >= 0 {
		t.Fatalf("cycle %d: the migrated session diverges from its unmigrated twin", c)
	}
}

// TestProgramConcurrentSims runs many sessions of one program in parallel
// (under -race in CI). With a shared seed they must hash alike: they share
// only immutable artifacts. Untraced, their clusters close — the plan is
// shared, the idle signatures are each session's own.
func TestProgramConcurrentSims(t *testing.T) {
	prog, err := lse.CompileLSS(ckptSpec, lse.WithSeed(3), lse.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	n := max(4, 2*runtime.GOMAXPROCS(0))
	hashes, errs := make([][]uint64, n), make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim, err := prog.NewSim()
			for c := 0; c < 100 && err == nil; c++ {
				if err = sim.Step(); err == nil {
					hashes[i] = append(hashes[i], simtest.StatusHash(sim))
				}
			}
			if err == nil && sim.Metrics().ClosedClusterCycles() == 0 {
				err = errors.New("no cluster closed in 100 cycles")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if c := diverges(hashes[0], hashes[i]); c >= 0 {
			t.Fatalf("session %d diverges from session 0 at cycle %d under a shared seed", i, c)
		}
	}
}

// TestRestoreRejectsForeignSnapshot pins the fingerprint guard: a
// snapshot of one program does not restore into a structurally different
// one — here the same recipe plus one unconnected instance.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	progA, err := lse.CompileLSS(ckptSpec)
	progB, err2 := lse.CompileLSS(ckptSpec + "instance extra : pcl.sink();\n")
	if err := errors.Join(err, err2); err != nil {
		t.Fatal(err)
	}
	_, sim := play(t, progA, nil, false, 10, nil)
	if _, err := progB.Restore(bytes.NewReader(snapshot(t, sim, ""))); err == nil {
		t.Fatal("restore accepted a snapshot from a structurally different program")
	}
}

// TestTracerSeesEveryResolution: with a tracer attached no cluster
// closes, so a trace of an idle stretch is complete — three resolutions
// per connection per cycle — where an untraced twin closes clusters.
func TestTracerSeesEveryResolution(t *testing.T) {
	// Two bursty chains of two queues each beside a 4×4 passive torus.
	prog, err := core.Compile(netlist([]byte{1, 1, 128, 0, 1, 2, 3, 2, 3, 1, 128, 0, 1, 2, 3, 2, 3, 1, 4, 4}), core.WithSeed(3), core.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	resolutions := 0
	count := &core.TextTracer{W: io.Discard, Filter: func(*core.Conn) bool { resolutions++; return false }}
	every := func(sim *core.Sim) { // before each Step, and after the last
		if want := 3 * prog.Conns() * int(sim.Now()); resolutions != want {
			t.Fatalf("by cycle %d the tracer saw %d resolutions, want %d", sim.Now(), resolutions, want)
		}
	}
	traced, tsim := play(t, prog, nil, false, 120, every, core.WithTracer(count))
	every(tsim)
	untraced, usim := play(t, prog, nil, false, 120, nil)
	if c := diverges(traced.status, untraced.status); c >= 0 {
		t.Fatalf("cycle %d: traced and untraced sessions resolve differently", c)
	}
	if tsim.Metrics().ClosedClusterCycles() != 0 || !tsim.Schedule().TracerOpen {
		t.Error("a traced session closed clusters, or does not report that its tracer keeps them open")
	}
	if usim.Metrics().ClosedClusterCycles() == 0 {
		t.Error("the untraced twin closed nothing: the netlist is not idle enough to test against")
	}
}
