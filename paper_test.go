package liberty_test

// paper_test.go holds the paper's experiments as one table: a row per
// EXPERIMENTS.md section (F1–F2d, C1–C8, A2–A5, L1) builds its model, runs
// it and returns its simulated quantities in order. TestPaper pins them
// against the table EXPERIMENTS.md keeps between its "paper table" markers,
// so the document is the golden; BenchmarkPaper times the same functions
// and reports the quantities. Host time is reported, never pinned.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/isa"
	"liberty/internal/liberate"
	"liberty/internal/mono"
	"liberty/internal/mpl"
	"liberty/internal/nilib"
	"liberty/internal/obs"
	"liberty/internal/pcl"
	"liberty/internal/simtest"
	"liberty/internal/systems"
	"liberty/internal/upl"
	"liberty/lse"
)

// quantity is one simulated number of a row, as the table prints it.
type quantity struct {
	name, value string
	f           float64
}

// count is an integer quantity, pinned exactly.
func count[N ~int | ~int64 | ~uint32 | ~uint64](name string, v N) quantity {
	return quantity{name, fmt.Sprint(v), float64(v)}
}

// value is a real quantity, pinned to six significant digits.
func value(name string, v float64) quantity { return quantity{name, fmt.Sprintf("%.6g", v), v} }

// under names quantities as one case of a row: "case.name".
func under(c string, qs ...quantity) []quantity {
	for i := range qs {
		qs[i].name = c + "." + qs[i].name
	}
	return qs
}

// experiment is one row: one unnamed part, or where it compares host time
// a named part per side, timed on its own and prefixing its quantities.
type experiment struct {
	name  string
	slow  bool // over ~100 ms under the race detector, which skips it
	parts []part
}

type part struct {
	name string
	run  func(tb testing.TB) []quantity
}

// fixedCycles is how long C1, C8 and A2 run their queue chains.
const fixedCycles = 1000

// The rows' programs, assembled once, as a simulator loads a binary.
var progSum, progSort, progLong = isa.MustAssemble(isa.ProgSum), isa.MustAssemble(isa.ProgSort), isa.MustAssemble(isa.ProgLong)

func paper() []experiment {
	whole := func(run func(testing.TB) []quantity) []part { return []part{{"", run}} }
	return []experiment{
		{"F1", false, []part{{"quickstart", f1("quickstart")}, {"pipeline", f1("pipeline")}, {"mesh", f1("mesh")}}},
		{"F2a", true, whole(f2a)}, {"F2b", false, whole(f2b)}, {"F2c", true, whole(f2c)}, {"F2d", false, whole(f2d)},
		{"C1", false, whole(c1)}, {"C2", false, whole(c2)}, {"C3", false, whole(c3)},
		{"C4", false, []part{{"monolithic", c4Monolithic}, {"structural", func(tb testing.TB) []quantity { return c4Structural(tb) }}}},
		{"C5", true, whole(c5)}, {"C6", true, whole(c6)}, {"C7", true, whole(c7)}, {"C8", false, whole(c8)},
		{"A2", false, []part{{"structural-handshake", a2Handshake}, {"direct-calls", a2Direct}}},
		{"A3", true, whole(a3)}, {"A4", true, whole(a4)},
		{"A5", true, []part{{"full-detail", a5(false)}, {"sampled-10pct", a5(true)}}},
		{"L1", false, whole(l1)},
	}
}

const tableBegin, tableEnd = "<!-- paper table: begin -->", "<!-- paper table: end -->"

// pinned reads EXPERIMENTS.md's table: each row's lines, in order.
func pinned(t *testing.T) map[string][]string {
	src := must(os.ReadFile("EXPERIMENTS.md"))(t)
	_, table, _ := strings.Cut(string(src), tableBegin)
	table, _, _ = strings.Cut(table, tableEnd)
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if lines[0] != "| row | quantity | value |" || len(lines) < 2 {
		t.Fatalf("EXPERIMENTS.md has no table | row | quantity | value | between %s and %s", tableBegin, tableEnd)
	}
	pins := map[string][]string{}
	for _, l := range lines[2:] {
		row, _, _ := strings.Cut(strings.TrimPrefix(l, "| "), " | ")
		pins[row] = append(pins[row], l)
	}
	return pins
}

// TestPaper pins every row's simulated quantities to EXPERIMENTS.md's
// table; on a mismatch it prints the row as computed, in the table's syntax.
func TestPaper(t *testing.T) {
	pins := pinned(t)
	for _, e := range paper() {
		want := strings.Join(pins[e.name], "\n")
		delete(pins, e.name)
		t.Run(e.name, func(t *testing.T) {
			if e.slow && raceEnabled {
				t.Skip("slow under the race detector")
			}
			var got []string
			for _, p := range e.parts {
				for _, q := range p.run(t) {
					if p.name != "" {
						q.name = p.name + "." + q.name
					}
					got = append(got, fmt.Sprintf("| %s | %s | %s |", e.name, q.name, q.value))
				}
			}
			if g := strings.Join(got, "\n"); g != want {
				t.Errorf("EXPERIMENTS.md's table pins\n%s\nthe row computes\n%s", want, g)
			}
		})
	}
	for row := range pins {
		t.Errorf("EXPERIMENTS.md's table has row %s, which no experiment computes", row)
	}
}

// BenchmarkPaper times each row, or each part of a row that compares
// host time, and reports its quantities.
func BenchmarkPaper(b *testing.B) {
	bench := func(b *testing.B, run func(testing.TB) []quantity) {
		var qs []quantity
		for range b.N {
			qs = run(b)
		}
		for _, q := range qs {
			b.ReportMetric(q.f, q.name)
		}
	}
	for _, e := range paper() {
		b.Run(e.name, func(b *testing.B) {
			if len(e.parts) == 1 {
				bench(b, e.parts[0].run)
				return
			}
			for _, p := range e.parts {
				b.Run(p.name, func(b *testing.B) { bench(b, p.run) })
			}
		})
	}
}

// BenchmarkObsOverhead is the observability layer's cost on C4's structural
// pipeline: "metrics" adds the scheduler counters and sampled react timing,
// "events" also streams every resolution through a filtered ring tracer.
func BenchmarkObsOverhead(b *testing.B) {
	events := core.WithTracer(obs.NewEventTracer(4096).FilterInstances("cpu.*"))
	for i, opts := range [][]core.BuildOption{nil, {core.WithMetrics()}, {core.WithMetrics(), events}} {
		b.Run([]string{"off", "metrics", "events"}[i], func(b *testing.B) {
			for range b.N {
				c4Structural(b, opts...)
			}
		})
	}
}

// TestC3IterativeRefinement: every refinement stage of C3 runs to completion,
// the full pipeline computes the sum, and detail never speeds the model up.
func TestC3IterativeRefinement(t *testing.T) {
	if qs := c3(t); qs[0].f > qs[1].f || qs[1].f > qs[2].f || qs[3] != count("full.v0", 136) {
		t.Fatalf("want fetch <= decode <= full simcycles and full.v0 = 136: %v", qs)
	}
}

// TestC7ThroughputShape: in C7, bigger frames mean fewer frames per cycle
// (serialization and DMA bound the rate, not a per-frame constant).
func TestC7ThroughputShape(t *testing.T) {
	qs := c7(t)
	for i := 1; i < len(qs); i++ {
		if qs[i].f >= qs[i-1].f {
			t.Fatalf("frame rate should fall with frame size: %v", qs)
		}
	}
}

// TestSpecsElaborate builds every shipped spec as F1 does and runs 200 cycles.
func TestSpecsElaborate(t *testing.T) {
	matches, _ := filepath.Glob("specs/*.lss")
	if len(matches) == 0 {
		t.Fatal("no specs found")
	}
	for _, path := range matches {
		t.Run(filepath.Base(path), func(t *testing.T) { simtest.Run(t, construct(t, path, lse.WithSeed(1)), 200) })
	}
}

// must(f())(tb) is what f returns, or fails tb with f's error.
func must[T any](v T, err error) func(testing.TB) T {
	return func(tb testing.TB) T {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
}

// finish builds b and runs it until done holds, within max cycles.
func finish(tb testing.TB, b *core.Builder, done func() bool, max uint64) *core.Sim {
	tb.Helper()
	sim := simtest.Build(tb, b)
	if !must(sim.RunUntil(func(*core.Sim) bool { return done() }, max))(tb) {
		tb.Fatalf("system did not finish within %d cycles", max)
	}
	return sim
}

// series adds insts to b and connects each one's "out" to the next one's "in".
func series(b *core.Builder, insts ...core.Instance) {
	for i, inst := range insts {
		b.Add(inst)
		if i > 0 {
			b.Connect(insts[i-1], "out", inst, "in")
		}
	}
}

// total sums the counter named suffix over insts.
func total[I core.Instance](sim *core.Sim, suffix string, insts []I) (n int64) {
	for _, inst := range insts {
		n += sim.Stats().CounterValue(inst.Name() + "." + suffix)
	}
	return n
}

func construct(tb testing.TB, path string, opts ...lse.BuildOption) *lse.Sim {
	return must(lse.LoadLSS(string(must(os.ReadFile(path))(tb)), opts...))(tb)
}

// f1 is Figure 1's pipeline on one spec: LSS in, executable simulator out.
func f1(spec string) func(testing.TB) []quantity {
	return func(tb testing.TB) []quantity {
		sim := construct(tb, "specs/"+spec+".lss")
		return []quantity{count("instances", len(sim.Instances())), count("conns", len(sim.Conns()))}
	}
}

// cmp runs a Figure 2(a)/(c) system to completion: the quantities both
// rows report, and the run.
func cmp(tb testing.TB, cfg systems.CMPCfg) ([]quantity, *systems.CMP, *core.Sim) {
	b := core.NewBuilder(core.WithSeed(cfg.Seed))
	sys := must(systems.BuildCMP(b, "cmp", cfg))(tb)
	sim := finish(tb, b, sys.Done, 500_000)
	return []quantity{count("simcycles", sim.Now()), count("references", sys.Completed()), value("memlat_cycles", sys.MeanLatency()),
		value("power_mW", ccl.MeasurePower(sim, sys.Dir.Net, ccl.DefaultPowerParams()).Total())}, sys, sim
}

// f2a is examples/cmp: the Figure 2(a) chip multiprocessor, its
// single-writer invariant checked over the shared lines.
func f2a(tb testing.TB) []quantity {
	qs, sys, sim := cmp(tb, systems.CMPCfg{W: 4, H: 4, RefsPer: 150, SharedPct: 30, Seed: 42})
	shared := make([]uint32, 16)
	for i := range shared {
		shared[i] = uint32(i) * 32
	}
	if err := sys.Dir.CheckCoherenceInvariant(shared); err != nil {
		tb.Fatal(err)
	}
	l1s := sys.Dir.L1s
	return append(qs, count("hits", total(sim, "hits", l1s)), count("misses", total(sim, "misses", l1s)),
		count("invalidations", total(sim, "invalidations", l1s)), count("recalls", total(sim, "recalls_sent", sys.Dir.Homes)))
}

// f2c is examples/gridsinabox: Figure 2(c), the CMP's components on a torus.
func f2c(tb testing.TB) []quantity {
	qs, sys, sim := cmp(tb, systems.CMPCfg{W: 4, H: 2, Torus: true, RefsPer: 120, SharedPct: 20, Seed: 3})
	links := sys.Dir.Net.Links
	return append(qs, count("messages", total(sim, "packets", links)), count("flits", total(sim, "flits", links)), count("links", len(links)))
}

// f2b is examples/sensornet: the Figure 2(b) sensor network drained.
func f2b(tb testing.TB) []quantity {
	b := core.NewBuilder(core.WithSeed(11))
	net := must(systems.BuildSensorNet(b, "sn", 4, 50, 40))(tb)
	sim := finish(tb, b, net.Exhausted, 200_000)
	simtest.Run(tb, sim, 300) // let in-flight transmissions land
	var sampled, filtered int64
	for _, n := range net.Nodes {
		sampled += sim.Stats().CounterValue(n.ADC.Name() + ".injected")
		filtered += n.DSP.Dropped()
	}
	sum := 0
	for _, v := range net.Base.Values() {
		sum += v.(*ccl.Packet).Payload.(systems.Reading).Value
	}
	return []quantity{count("simcycles", sim.Now()), count("sampled", sampled), count("filtered", filtered),
		count("transmissions", sim.Stats().CounterValue("sn/air.sent")), count("contention", net.Air.Collisions()),
		count("lost", sim.Stats().CounterValue("sn/air.lost")), count("readings", net.Base.Received()),
		value("air_latency_cycles", net.Base.MeanLatency()), value("mean_reading", float64(sum)/float64(net.Base.Received()))}
}

// f2d is examples/systemofsystems: the Figure 2(d) hierarchy.
func f2d(tb testing.TB) []quantity {
	b := core.NewBuilder(core.WithSeed(2026))
	sos := must(systems.BuildSoS(b, "sos", systems.SoSCfg{
		Clusters: 3, SensorsPer: 3, SamplesPer: 24, Threshold: 25, Batch: 4, MeshW: 2, MeshH: 2,
	}))(tb)
	sim := finish(tb, b, func() bool { return sos.Grid.Done() && sos.SummariesDelivered() >= 6 }, 500_000)
	var sent, contention int64
	for _, cl := range sos.Clusters {
		sent += sim.Stats().CounterValue(cl.Air.Name() + ".sent")
		contention += cl.Air.Collisions()
	}
	return []quantity{count("simcycles", sim.Now()), count("transmissions", sent), count("contention", contention),
		count("readings", sos.TotalReadings()), count("summaries", sos.SummariesDelivered()),
		count("retired", sos.Grid.Retired()), value("ipc", sos.Grid.IPC(sim))}
}

// c1 is one pcl.Queue template in three §2.1 roles: router buffer (FIFO),
// instruction window and reorder buffer (a select function each).
func c1(tb testing.TB) []quantity {
	// With every operand ready, the window's ready-first selection and the
	// ROB's completed-prefix selection both take every entry, oldest first.
	all := pcl.SelectFn(func(entries []any) (out []int) {
		for i := range entries {
			out = append(out, i)
		}
		return out
	})
	var qs []quantity
	for i, sel := range []pcl.SelectFn{nil, all, all} {
		params := core.Params{"capacity": 8}
		if sel != nil {
			params["select"] = sel
		}
		qs = append(qs, under([]string{"router-buffer", "instruction-window", "reorder-buffer"}[i], value("items/cycle", chain(tb, nil, params)))...)
	}
	return qs
}

// chain runs source -> a queue per params -> a sink whose port is under
// control for fixedCycles cycles: the items accepted per cycle.
func chain(tb testing.TB, control core.ControlFn, params ...core.Params) float64 {
	insts := []core.Instance{must(pcl.NewSource("src", nil))(tb)}
	for i, p := range params {
		insts = append(insts, must(pcl.NewQueue(fmt.Sprintf("q%d", i+1), p))(tb))
	}
	snk := &controlledSink{}
	snk.Init("snk", snk)
	snk.In = snk.AddInPort("in", core.PortOpts{Control: control})
	snk.OnCycleEnd(func() {
		if snk.In.Transferred(0) {
			snk.received++
		}
	})
	b := core.NewBuilder()
	series(b, append(insts, snk)...)
	simtest.Run(tb, simtest.Build(tb, b), fixedCycles)
	return float64(snk.received) / fixedCycles
}

// controlledSink counts what its in port, under chain's control function,
// accepts.
type controlledSink struct {
	core.Base
	In       *core.Port
	received int64
}

// c2 is examples/refinement part 2: one crossbar driven by a statistical
// generator, then by a detailed pipeline behind a commit-batch NI.
func c2(tb testing.TB) []quantity {
	var qs []quantity
	for _, source := range []string{"statistical", "detailed"} {
		b := core.NewBuilder(core.WithSeed(123))
		nw := must(ccl.BuildCrossbar(b, "net", 2, 4))(tb)
		snk, drain := must(pcl.NewSink("snk", nil))(tb), must(pcl.NewSink("drain0", nil))(tb)
		b.Add(snk)
		b.Add(drain)
		nw.ConnectSink(b, 1, snk, "in")
		nw.ConnectSink(b, 0, drain, "in")
		var src core.Instance
		var done func() bool
		if source == "statistical" {
			gen := must(pcl.NewSource("gen", core.Params{"rate": 0.05, "count": 40,
				"gen": pcl.GenFn(func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
					return &ccl.Packet{ID: seq, Src: 0, Dst: 1, Size: 2, Injected: cycle}, true
				}),
			}))(tb)
			src, done = gen, gen.Exhausted
		} else {
			cpu := must(upl.NewInOrderCPU(b, "cpu", progSort, upl.CPUCfg{}))(tb)
			ni := newCommitNI("ni", cpu)
			src, done = ni, func() bool { return cpu.Done() && ni.batches == ni.sent }
		}
		b.Add(src)
		nw.ConnectSource(b, 0, src, "out")
		finish(tb, b, done, 200_000)
		qs = append(qs, under(source, count("delivered", snk.Received()), value("latency_cycles", snk.MeanLatency()))...)
	}
	return qs
}

// commitNI wraps a pipeline as a packet source: one packet per eight
// committed instructions.
type commitNI struct {
	core.Base
	Out           *core.Port
	cpu           *upl.InOrderCPU
	batches, sent uint64 // batches committed by the cycle's start, packets sent
}

func newCommitNI(name string, cpu *upl.InOrderCPU) *commitNI {
	n := &commitNI{cpu: cpu}
	n.Init(name, n)
	n.Out = n.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	n.OnCycleStart(func() {
		if n.batches = n.cpu.Retired() / 8; n.batches > n.sent {
			n.Out.Send(0, &ccl.Packet{ID: n.sent, Src: 0, Dst: 1, Size: 2, Injected: n.Now()})
			n.Out.Enable(0)
		} else {
			n.Out.SendNothing(0)
			n.Out.Disable(0)
		}
	})
	n.OnCycleEnd(func() {
		if n.Out.Transferred(0) {
			n.sent++
		}
	})
	return n
}

// c3 is examples/refinement part 1: fetch only, then fetch+decode, then
// the full pipeline, unspecified structure covered by default control.
func c3(tb testing.TB) []quantity {
	var cpu *upl.InOrderCPU
	var qs []quantity
	for _, stage := range []string{"fetch", "decode", "full"} {
		b := core.NewBuilder()
		var done func() bool
		if stage == "full" {
			cpu = must(upl.NewInOrderCPU(b, "cpu", progSum, upl.CPUCfg{}))(tb)
			done = cpu.Done
		} else {
			emu := isa.NewCPU()
			progSum.LoadInto(emu.Mem)
			emu.Reset(progSum.Entry)
			f := must(upl.NewFetchStage("cpu/fetch", emu, upl.FetchCfg{}))(tb)
			insts := []core.Instance{f, must(pcl.NewSink("drain", nil))(tb)}
			if stage == "decode" {
				insts = []core.Instance{f, upl.NewDecodeStage("cpu/decode", upl.DefaultLatencies()), insts[1]}
			}
			series(b, insts...)
			done = f.Done
		}
		qs = append(qs, count(stage+".simcycles", finish(tb, b, done, 1_000_000).Now()))
	}
	return append(qs, count("full.v0", cpu.Emu().R[isa.RegV0]))
}

// c4Monolithic is the hand-written five-stage pipeline (internal/mono) on
// the program c4Structural runs.
func c4Monolithic(tb testing.TB) []quantity {
	p := must(mono.NewPipeline(progSum, upl.CPUCfg{}))(tb)
	res := must(p.Run(1_000_000))(tb)
	return []quantity{value("ipc", res.IPC()), count("simcycles", res.Cycles)}
}

func c4Structural(tb testing.TB, opts ...core.BuildOption) []quantity {
	b := core.NewBuilder(opts...)
	cpu := must(upl.NewInOrderCPU(b, "cpu", progSum, upl.CPUCfg{}))(tb)
	sim := finish(tb, b, cpu.Done, 1_000_000)
	return []quantity{value("ipc", cpu.IPC(sim)), count("simcycles", sim.Now())}
}

// c5 is three points of the Orion curve on an 8x8 mesh under uniform
// traffic (cmd/orion prints the full table).
func c5(tb testing.TB) []quantity {
	var qs []quantity
	for _, rate := range []float64{0.05, 0.15, 0.3} {
		pt := must(ccl.MeasurePoint(ccl.SweepCfg{W: 8, H: 8, Cycles: 1000, Seed: 1}, rate))(tb)
		qs = append(qs, under(fmt.Sprintf("rate%.2f", rate), value("latency_cycles", pt.MeanLatency),
			value("pkts/node/cycle", pt.Throughput), value("power_mW", pt.PowerMw),
			value("dynamic_mW", pt.DynamicMw), value("leakage_mW", pt.LeakageMw))...)
	}
	return qs
}

// c6 runs one four-core sharing workload under bus-based snooping and
// under a directory over a mesh; assemble returns core c's controller.
func c6(tb testing.TB) []quantity {
	run := func(name string, assemble func(*core.Builder) (func(c int) core.Instance, error)) []quantity {
		b := core.NewBuilder()
		ctrl := must(assemble(b))(tb)
		var cores []*mpl.TraceCore
		for c := range 4 {
			trace := make([]mpl.MemRef, 25)
			for k := range trace {
				trace[k] = mpl.MemRef{Write: k%3 == 0, Addr: uint32((k + c) % 8 * 32), Data: uint32(c<<16 | k)}
			}
			tc := mpl.NewTraceCore(fmt.Sprintf("core%d", c), trace, 1)
			b.Add(tc)
			b.Connect(tc, "req", ctrl(c), "cpu")
			b.Connect(ctrl(c), "resp", tc, "resp")
			cores = append(cores, tc)
		}
		sim := finish(tb, b, func() bool { return cores[0].Done() && cores[1].Done() && cores[2].Done() && cores[3].Done() }, 200_000)
		return under(name, count("simcycles", sim.Now()), value("memlat_cycles", cores[0].MeanLatency()))
	}
	return append(run("snooping-bus", func(b *core.Builder) (func(int) core.Instance, error) {
		sys, err := mpl.BuildSnoopSystem(b, "coh", 4, mpl.CacheCtrlCfg{MESI: true}, mpl.SnoopBusCfg{})
		return func(c int) core.Instance { return sys.Ctrls[c] }, err
	}), run("directory-mesh", func(b *core.Builder) (func(int) core.Instance, error) {
		sys, err := mpl.BuildDirectorySystem(b, "coh", ccl.MeshCfg{W: 2, H: 2}, upl.CacheCfg{})
		return func(c int) core.Instance { return sys.L1s[c] }, err
	})...)
}

// c7 is the programmable NIC's receive-path frame rate against frame size:
// 30 equal frames through the firmware, DMA'd to host memory.
func c7(tb testing.TB) []quantity {
	var qs []quantity
	for _, payload := range []int{46, 242, 1010, 1486} {
		b := core.NewBuilder(core.WithSeed(1))
		nic := must(nilib.NewNIC(b, "nic", nilib.NICCfg{}))(tb)
		host := must(pcl.NewMemArray("host", core.Params{"words": 32 * 2048 / 4, "latency": 2, "queue": 8}))(tb)
		frames := make([]any, 30)
		for i := range frames {
			frames[i] = &nilib.Frame{Src: nilib.MACAddr{0, 0, 0, 0, 0, byte(i)}, EtherType: 0x0800, Payload: make([]byte, payload)}
		}
		wire := simtest.NewProducer("wire", frames)
		b.Add(nic)
		b.Add(host)
		b.Add(wire)
		b.Connect(wire, "out", nic, "wire")
		b.Connect(nic, "hostreq", host, "req")
		b.Connect(host, "resp", nic, "hostresp")
		sim := finish(tb, b, func() bool { return nic.Delivered() >= int64(len(frames)) }, 2_000_000)
		qs = append(qs, value(fmt.Sprintf("frame%dB.frames/kcycle", payload+18), float64(len(frames))/float64(sim.Now())*1000))
	}
	return qs
}

// c8 is a queue chain under default control and with a user control
// function that refuses every second offer at the sink.
func c8(tb testing.TB) []quantity {
	n := 0
	throttle := core.ControlFn(func(data, enable core.Status, v any) core.Status {
		if n++; n%2 == 0 {
			return core.No
		}
		return core.Unknown // defer to the default
	})
	return append(under("default-control", value("items/cycle", chain(tb, nil, core.Params{"capacity": 4}))),
		under("throttling-control", value("items/cycle", chain(tb, throttle, core.Params{"capacity": 4})))...)
}

// a2Handshake is a three-queue chain under the engine; a2Direct is its
// per-cycle dataflow as direct Go slice operations, back to front.
func a2Handshake(tb testing.TB) []quantity {
	capacity := core.Params{"capacity": 4}
	return []quantity{value("items/cycle", chain(tb, nil, capacity, capacity, capacity))}
}

func a2Direct(testing.TB) []quantity {
	var q [3][]int
	next, received := 0, 0
	for range fixedCycles {
		if len(q[2]) > 0 {
			q[2] = q[2][1:]
			received++
		}
		for i := 2; i > 0; i-- {
			if len(q[i-1]) > 0 && len(q[i]) < 4 {
				q[i], q[i-1] = append(q[i], q[i-1][0]), q[i-1][1:]
			}
		}
		if len(q[0]) < 4 {
			q[0] = append(q[0], next)
			next++
		}
	}
	return []quantity{value("items/cycle", float64(received)/fixedCycles)}
}

// traffic offers 2-flit packets at rate from every node of a cfg mesh (a
// 16-port crossbar if cfg is zero) for 1 500 cycles: the mean latency,
// delivered packets per node per cycle and the fabric's leakage.
func traffic(tb testing.TB, seed int64, rate float64, pattern ccl.PatternFn, cfg ccl.MeshCfg) (lat, thr, leak float64) {
	b := core.NewBuilder(core.WithSeed(seed))
	var nw *ccl.Network
	if cfg.W == 0 {
		nw = must(ccl.BuildCrossbar(b, "net", 16, 4))(tb)
	} else {
		nw = must(ccl.BuildMesh(b, "net", cfg))(tb)
	}
	var sinks []*pcl.Sink
	for n := 0; n < nw.Nodes; n++ {
		src := must(pcl.NewSource(fmt.Sprintf("src%d", n), core.Params{
			"rate": rate, "gen": ccl.PacketGen(n, nw.Nodes, pattern, ccl.FixedSize(2)),
		}))(tb)
		snk := must(pcl.NewSink(fmt.Sprintf("snk%d", n), nil))(tb)
		b.Add(src)
		b.Add(snk)
		nw.ConnectSource(b, n, src, "out")
		nw.ConnectSink(b, n, snk, "in")
		sinks = append(sinks, snk)
	}
	sim := simtest.Build(tb, b)
	simtest.Run(tb, sim, 1500)
	sum, cnt := 0.0, int64(0)
	for _, s := range sinks {
		h := sim.Stats().Histogram(s.Name() + ".latency")
		sum, cnt = sum+h.Sum(), cnt+h.Count()
	}
	return sum / float64(cnt), float64(total(sim, "received", sinks)) / 1500 / float64(nw.Nodes),
		ccl.MeasurePower(sim, nw, ccl.DefaultPowerParams()).LeakageTotal()
}

// a3 compares 16-node fabrics at the same uniform offered load.
func a3(tb testing.TB) []quantity {
	var qs []quantity
	for i, cfg := range []ccl.MeshCfg{{W: 4, H: 4}, {W: 4, H: 4, Torus: true}, {}} {
		lat, thr, _ := traffic(tb, 5, 0.1, ccl.UniformPattern, cfg)
		qs = append(qs, under([]string{"mesh-4x4", "torus-4x4", "xbar-16"}[i], value("latency_cycles", lat), value("pkts/node/cycle", thr))...)
	}
	return qs
}

// a4 sweeps the virtual channel count of a 4x4 mesh under transpose
// traffic, adversarial for XY routing.
func a4(tb testing.TB) []quantity {
	var qs []quantity
	for _, vcs := range []int{1, 2, 4} {
		lat, thr, leak := traffic(tb, 7, 0.15, ccl.TransposePattern(4), ccl.MeshCfg{W: 4, H: 4, VCs: vcs})
		qs = append(qs, under(fmt.Sprintf("vcs%d", vcs), value("latency_cycles", lat), value("pkts/node/cycle", thr), value("leakage_mW", leak))...)
	}
	return qs
}

// a5 runs ProgLong in full detail, or sampled: detailed windows alternate
// with functional fast-forward.
func a5(sampled bool) func(testing.TB) []quantity {
	return func(tb testing.TB) []quantity {
		b := core.NewBuilder()
		cpu := must(upl.NewInOrderCPU(b, "cpu", progLong, upl.CPUCfg{}))(tb)
		if !sampled {
			return []quantity{count("simcycles", finish(tb, b, cpu.Done, 5_000_000).Now())}
		}
		res := must(upl.RunSampled(simtest.Build(tb, b), cpu, upl.SampleCfg{DetailInsts: 300, SkipInsts: 2700}))(tb)
		return []quantity{count("simcycles", res.EstCycles), value("detail_share", res.DetailedShare)}
	}
}

// l1 is examples/liberation: the monolithic pipeline as an LSE module, its
// retire events queued to a consumer accepting one every 1, 4 or 16 cycles.
func l1(tb testing.TB) []quantity {
	var qs []quantity
	for _, every := range []int{1, 4, 16} {
		lp := must(liberate.NewLiberatedPipeline(progSum, upl.CPUCfg{}))(tb)
		mod := liberate.New("legacy", lp, 2)
		q := must(pcl.NewQueue("q", core.Params{"capacity": 4}))(tb)
		snk := must(pcl.NewSink("snk", nil))(tb)
		b := core.NewBuilder()
		series(b, mod, q, must(pcl.NewClockGate("gate", core.Params{"divisor": every}))(tb), snk)
		sim := finish(tb, b, func() bool { return mod.Done() && snk.Received() > 0 && q.Len() == 0 }, 1_000_000)
		qs = append(qs, under(fmt.Sprintf("every%d", every), count("legacy_cycles", lp.Pipeline().Cycle()),
			count("stall_cycles", sim.Stats().CounterValue("legacy.stall_cycles")), count("events", snk.Received()))...)
	}
	return qs
}
