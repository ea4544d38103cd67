// The benchmark harness: one Benchmark per experiment in DESIGN.md's
// index (Figure 1, Figure 2(a)-(d), claims C1-C8, ablations A1-A2).
// EXPERIMENTS.md records the measured shapes against the paper's claims.
package liberty_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/isa"
	"liberty/internal/mono"
	"liberty/internal/obs"
	"liberty/internal/pcl"
	"liberty/internal/systems"
	"liberty/internal/upl"
	"liberty/lse"
)

func mustReadSpec(b *testing.B, path string) string {
	b.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return string(src)
}

// BenchmarkFig1ConstructSimulator measures the Figure 1 pipeline: LSS in,
// executable simulator out (parse + elaborate + netlist checks).
func BenchmarkFig1ConstructSimulator(b *testing.B) {
	for _, spec := range []string{"specs/quickstart.lss", "specs/pipeline.lss", "specs/mesh.lss"} {
		src := mustReadSpec(b, spec)
		b.Run(spec, func(b *testing.B) {
			var instances int
			for i := 0; i < b.N; i++ {
				sim, err := lse.LoadLSS(src)
				if err != nil {
					b.Fatal(err)
				}
				instances = len(sim.Instances())
			}
			b.ReportMetric(float64(instances), "instances")
		})
	}
}

func runToDone(b *testing.B, sim *core.Sim, done func() bool, max uint64) uint64 {
	b.Helper()
	ok, err := sim.RunUntil(func(*core.Sim) bool { return done() }, max)
	if err != nil {
		b.Fatal(err)
	}
	if !ok {
		b.Fatalf("system did not finish within %d cycles", max)
	}
	return sim.Now()
}

// BenchmarkFig2aCMP simulates the Figure 2(a) chip multiprocessor to
// completion of its workload.
func BenchmarkFig2aCMP(b *testing.B) {
	var cycles uint64
	var latency float64
	for i := 0; i < b.N; i++ {
		bld := core.NewBuilder(core.WithSeed(1))
		cmp, err := systems.BuildCMP(bld, "cmp", systems.CMPCfg{W: 2, H: 2, RefsPer: 60, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		cycles = runToDone(b, sim, cmp.Done, 300_000)
		latency = cmp.MeanLatency()
	}
	b.ReportMetric(float64(cycles), "simcycles")
	b.ReportMetric(latency, "memlat_cycles")
}

// BenchmarkFig2bSensorNode simulates the Figure 2(b) sensor network until
// all samples drain.
func BenchmarkFig2bSensorNode(b *testing.B) {
	var delivered int64
	for i := 0; i < b.N; i++ {
		bld := core.NewBuilder(core.WithSeed(5))
		net, err := systems.BuildSensorNet(bld, "sn", 3, 20, 40)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		runToDone(b, sim, net.Exhausted, 200_000)
		delivered = net.Base.Received()
	}
	b.ReportMetric(float64(delivered), "readings")
}

// BenchmarkFig2cGrid simulates the Figure 2(c) grid-in-a-box (torus
// backplane) to completion.
func BenchmarkFig2cGrid(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		bld := core.NewBuilder(core.WithSeed(2))
		grid, err := systems.BuildCMP(bld, "grid", systems.CMPCfg{
			W: 4, H: 2, Torus: true, RefsPer: 40, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		cycles = runToDone(b, sim, grid.Done, 300_000)
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkFig2dSystemOfSystems simulates the Figure 2(d) hierarchy.
func BenchmarkFig2dSystemOfSystems(b *testing.B) {
	var summaries int64
	for i := 0; i < b.N; i++ {
		bld := core.NewBuilder(core.WithSeed(9))
		sos, err := systems.BuildSoS(bld, "sos", systems.SoSCfg{
			Clusters: 2, SensorsPer: 2, SamplesPer: 16, Threshold: 10, Batch: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		runToDone(b, sim, func() bool {
			return sos.Grid.Done() && sos.SummariesDelivered() >= 4
		}, 300_000)
		summaries = sos.SummariesDelivered()
	}
	b.ReportMetric(float64(summaries), "summaries")
}

// BenchmarkC1QueueReuse exercises the identical pcl.Queue template in its
// three §2.1 roles: router I/O buffer (FIFO), instruction window
// (dataflow-ready selection) and reorder buffer (completed-prefix
// selection), measuring simulated throughput in each role.
func BenchmarkC1QueueReuse(b *testing.B) {
	type role struct {
		name   string
		params core.Params
	}
	ready := map[int]bool{}
	windowSelect := pcl.SelectFn(func(entries []any) []int {
		var out []int
		for i, e := range entries {
			if ready[e.(int)%4] {
				out = append(out, i)
			}
		}
		return out
	})
	robSelect := pcl.SelectFn(func(entries []any) []int {
		var out []int
		for i, e := range entries {
			if !ready[e.(int)%4] {
				break
			}
			out = append(out, i)
		}
		return out
	})
	for k := 0; k < 4; k++ {
		ready[k] = true
	}
	roles := []role{
		{"router-buffer", core.Params{"capacity": 8}},
		{"instruction-window", core.Params{"capacity": 8, "select": windowSelect}},
		{"reorder-buffer", core.Params{"capacity": 8, "select": robSelect}},
	}
	for _, r := range roles {
		b.Run(r.name, func(b *testing.B) {
			bld := core.NewBuilder()
			src, err := pcl.NewSource("src", nil)
			if err != nil {
				b.Fatal(err)
			}
			q, err := pcl.NewQueue("q", r.params)
			if err != nil {
				b.Fatal(err)
			}
			snk, err := pcl.NewSink("snk", nil)
			if err != nil {
				b.Fatal(err)
			}
			bld.Add(src)
			bld.Add(q)
			bld.Add(snk)
			bld.Connect(src, "out", q, "in")
			bld.Connect(q, "out", snk, "in")
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(snk.Received())/float64(b.N), "items/cycle")
		})
	}
}

// BenchmarkC2MixedAbstraction drives the same crossbar with a statistical
// generator and with a detailed pipeline behind an NI.
func BenchmarkC2MixedAbstraction(b *testing.B) {
	b.Run("statistical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder(core.WithSeed(3))
			nw, err := ccl.BuildCrossbar(bld, "net", 2, 4)
			if err != nil {
				b.Fatal(err)
			}
			src, err := pcl.NewSource("gen", core.Params{
				"rate": 0.2, "count": 50,
				"gen": pcl.GenFn(func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
					return &ccl.Packet{ID: seq, Src: 0, Dst: 1, Size: 2, Injected: cycle}, true
				}),
			})
			if err != nil {
				b.Fatal(err)
			}
			snk, _ := pcl.NewSink("snk", nil)
			drain, _ := pcl.NewSink("drain", nil)
			bld.Add(src)
			bld.Add(snk)
			bld.Add(drain)
			nw.ConnectSource(bld, 0, src, "out")
			nw.ConnectSink(bld, 1, snk, "in")
			nw.ConnectSink(bld, 0, drain, "in")
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			runToDone(b, sim, src.Exhausted, 100_000)
		}
	})
	b.Run("detailed-cpu-ni", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder(core.WithSeed(3))
			nw, err := ccl.BuildCrossbar(bld, "net", 2, 4)
			if err != nil {
				b.Fatal(err)
			}
			cpu, err := upl.NewInOrderCPU(bld, "cpu", isa.MustAssemble(isa.ProgSum), upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			ni := newCommitNI("ni", cpu)
			snk, _ := pcl.NewSink("snk", nil)
			drain, _ := pcl.NewSink("drain", nil)
			bld.Add(ni)
			bld.Add(snk)
			bld.Add(drain)
			nw.ConnectSource(bld, 0, ni, "out")
			nw.ConnectSink(bld, 1, snk, "in")
			nw.ConnectSink(bld, 0, drain, "in")
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			runToDone(b, sim, cpu.Done, 100_000)
		}
	})
}

// BenchmarkC4StructuralVsMonolithic compares host-time cost of the
// structural five-stage pipeline against the hand-written monolithic
// baseline on the same program — the overhead the paper's optimization
// work ([22]) attacks.
func BenchmarkC4StructuralVsMonolithic(b *testing.B) {
	prog := isa.MustAssemble(isa.ProgSum)
	b.Run("monolithic", func(b *testing.B) {
		var res mono.PipelineResult
		for i := 0; i < b.N; i++ {
			p, err := mono.NewPipeline(prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			res, err = p.Run(1_000_000)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.IPC(), "ipc")
		b.ReportMetric(float64(res.Cycles), "simcycles")
	})
	b.Run("structural", func(b *testing.B) {
		var cycles uint64
		var ipc float64
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder()
			cpu, err := upl.NewInOrderCPU(bld, "cpu", prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			cycles = runToDone(b, sim, cpu.Done, 1_000_000)
			ipc = cpu.IPC(sim)
		}
		b.ReportMetric(ipc, "ipc")
		b.ReportMetric(float64(cycles), "simcycles")
	})
}

// BenchmarkC5OrionSweep regenerates the Orion load/latency/power curve on
// an 8x8 mesh under uniform traffic (three representative points; run
// cmd/orion for the full table).
func BenchmarkC5OrionSweep(b *testing.B) {
	for _, rate := range []float64{0.05, 0.15, 0.3} {
		b.Run(fmt.Sprintf("rate=%.2f", rate), func(b *testing.B) {
			var pt ccl.SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = ccl.MeasurePoint(ccl.SweepCfg{
					W: 8, H: 8, Cycles: 1000, Seed: 1,
				}, rate)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.MeanLatency, "latency_cycles")
			b.ReportMetric(pt.Throughput, "pkts/node/cycle")
			b.ReportMetric(pt.PowerMw, "power_mW")
			b.ReportMetric(pt.DynamicMw, "dynamic_mW")
		})
	}
}

// BenchmarkC7NICThroughput measures the programmable NIC's receive-path
// packet rate against frame size — per-frame firmware overhead dominates
// small frames, DMA bandwidth dominates large ones.
func BenchmarkC7NICThroughput(b *testing.B) {
	for _, payload := range []int{46, 242, 1010, 1486} {
		b.Run(fmt.Sprintf("frame=%dB", payload+18), func(b *testing.B) {
			var framesPerKcycle float64
			for i := 0; i < b.N; i++ {
				framesPerKcycle = nicThroughput(b, payload, 30)
			}
			b.ReportMetric(framesPerKcycle, "frames/kcycle")
		})
	}
}

// BenchmarkA2ContractCost isolates the 3-signal handshake's host cost: a
// three-stage queue chain under the engine versus the same FIFO dataflow
// as direct Go calls.
func BenchmarkA2ContractCost(b *testing.B) {
	b.Run("structural-handshake", func(b *testing.B) {
		bld := core.NewBuilder()
		src, _ := pcl.NewSource("src", nil)
		q1, _ := pcl.NewQueue("q1", core.Params{"capacity": 4})
		q2, _ := pcl.NewQueue("q2", core.Params{"capacity": 4})
		q3, _ := pcl.NewQueue("q3", core.Params{"capacity": 4})
		snk, _ := pcl.NewSink("snk", nil)
		bld.Add(src)
		bld.Add(q1)
		bld.Add(q2)
		bld.Add(q3)
		bld.Add(snk)
		bld.Connect(src, "out", q1, "in")
		bld.Connect(q1, "out", q2, "in")
		bld.Connect(q2, "out", q3, "in")
		bld.Connect(q3, "out", snk, "in")
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(snk.Received())/float64(b.N), "items/cycle")
	})
	b.Run("direct-calls", func(b *testing.B) {
		// The same per-cycle dataflow, hand-inlined: three bounded FIFOs.
		var q1, q2, q3 []int
		const capQ = 4
		next := 0
		received := 0
		step := func() {
			if len(q3) > 0 {
				q3 = q3[1:]
				received++
			}
			if len(q2) > 0 && len(q3) < capQ {
				q3 = append(q3, q2[0])
				q2 = q2[1:]
			}
			if len(q1) > 0 && len(q2) < capQ {
				q2 = append(q2, q1[0])
				q1 = q1[1:]
			}
			if len(q1) < capQ {
				q1 = append(q1, next)
				next++
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.ReportMetric(float64(received)/float64(b.N), "items/cycle")
	})
}

// BenchmarkA3Topology compares 16-node fabrics at the same offered load:
// mesh vs torus vs single-stage crossbar.
func BenchmarkA3Topology(b *testing.B) {
	build := map[string]func(bld *core.Builder) (*ccl.Network, error){
		"mesh-4x4": func(bld *core.Builder) (*ccl.Network, error) {
			return ccl.BuildMesh(bld, "net", ccl.MeshCfg{W: 4, H: 4})
		},
		"torus-4x4": func(bld *core.Builder) (*ccl.Network, error) {
			return ccl.BuildMesh(bld, "net", ccl.MeshCfg{W: 4, H: 4, Torus: true})
		},
		"xbar-16": func(bld *core.Builder) (*ccl.Network, error) {
			return ccl.BuildCrossbar(bld, "net", 16, 4)
		},
	}
	for _, name := range []string{"mesh-4x4", "torus-4x4", "xbar-16"} {
		b.Run(name, func(b *testing.B) {
			var lat float64
			var thr float64
			for i := 0; i < b.N; i++ {
				bld := core.NewBuilder(core.WithSeed(5))
				nw, err := build[name](bld)
				if err != nil {
					b.Fatal(err)
				}
				var sinks []*pcl.Sink
				for n := 0; n < nw.Nodes; n++ {
					src, _ := pcl.NewSource(fmt.Sprintf("src%d", n), core.Params{
						"rate": 0.1,
						"gen":  ccl.PacketGen(n, nw.Nodes, ccl.UniformPattern, ccl.FixedSize(2)),
					})
					snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", n), nil)
					bld.Add(src)
					bld.Add(snk)
					nw.ConnectSource(bld, n, src, "out")
					nw.ConnectSink(bld, n, snk, "in")
					sinks = append(sinks, snk)
				}
				sim, err := bld.Build()
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.Run(1500); err != nil {
					b.Fatal(err)
				}
				var sum float64
				var cnt, recv int64
				for _, s := range sinks {
					recv += s.Received()
					h := sim.Stats().Histogram(s.Name() + ".latency")
					if h != nil {
						sum += h.Sum()
						cnt += h.Count()
					}
				}
				if cnt > 0 {
					lat = sum / float64(cnt)
				}
				thr = float64(recv) / 1500 / float64(nw.Nodes)
			}
			b.ReportMetric(lat, "latency_cycles")
			b.ReportMetric(thr, "pkts/node/cycle")
		})
	}
}

// BenchmarkA4VirtualChannels sweeps VC count on a mesh under transpose
// traffic (adversarial for XY routing): more VCs relieve head-of-line
// blocking at the cost of buffer area/leakage.
func BenchmarkA4VirtualChannels(b *testing.B) {
	for _, vcs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("vcs=%d", vcs), func(b *testing.B) {
			var lat, thr, leak float64
			for i := 0; i < b.N; i++ {
				bld := core.NewBuilder(core.WithSeed(7))
				nw, err := ccl.BuildMesh(bld, "net", ccl.MeshCfg{W: 4, H: 4, VCs: vcs})
				if err != nil {
					b.Fatal(err)
				}
				var sinks []*pcl.Sink
				for n := 0; n < nw.Nodes; n++ {
					src, _ := pcl.NewSource(fmt.Sprintf("src%d", n), core.Params{
						"rate": 0.15,
						"gen":  ccl.PacketGen(n, nw.Nodes, ccl.TransposePattern(4), ccl.FixedSize(2)),
					})
					snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", n), nil)
					bld.Add(src)
					bld.Add(snk)
					nw.ConnectSource(bld, n, src, "out")
					nw.ConnectSink(bld, n, snk, "in")
					sinks = append(sinks, snk)
				}
				sim, err := bld.Build()
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.Run(1500); err != nil {
					b.Fatal(err)
				}
				var sum float64
				var cnt, recv int64
				for _, s := range sinks {
					recv += s.Received()
					h := sim.Stats().Histogram(s.Name() + ".latency")
					if h != nil {
						sum += h.Sum()
						cnt += h.Count()
					}
				}
				if cnt > 0 {
					lat = sum / float64(cnt)
				}
				thr = float64(recv) / 1500 / float64(nw.Nodes)
				leak = ccl.MeasurePower(sim, nw, ccl.DefaultPowerParams()).LeakageTotal()
			}
			b.ReportMetric(lat, "latency_cycles")
			b.ReportMetric(thr, "pkts/node/cycle")
			b.ReportMetric(leak, "leakage_mW")
		})
	}
}

// BenchmarkA5SampledSimulation compares full-detail against sampled
// simulation of the same program: host time drops with the detail share
// while the cycle estimate stays close.
func BenchmarkA5SampledSimulation(b *testing.B) {
	prog := isa.MustAssemble(isa.ProgLong)
	b.Run("full-detail", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder()
			cpu, err := upl.NewInOrderCPU(bld, "cpu", prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			cycles = runToDone(b, sim, cpu.Done, 5_000_000)
		}
		b.ReportMetric(float64(cycles), "simcycles")
	})
	b.Run("sampled-10pct", func(b *testing.B) {
		var res upl.SampledResult
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder()
			cpu, err := upl.NewInOrderCPU(bld, "cpu", prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			res, err = upl.RunSampled(sim, cpu, upl.SampleCfg{DetailInsts: 300, SkipInsts: 2700})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.EstCycles), "simcycles")
		b.ReportMetric(res.DetailedShare, "detail_share")
	})
}

// BenchmarkObsOverhead quantifies the cost of the observability layer on
// the structural in-order pipeline from C4: "off" is the baseline every
// other benchmark pays (one nil check per scheduler event), "metrics"
// adds the atomic scheduler counters and sampled react timing, "events"
// additionally streams every resolution through a filtered ring tracer.
// Acceptance: off stays within 2% of the pre-observability engine.
func BenchmarkObsOverhead(b *testing.B) {
	prog := isa.MustAssemble(isa.ProgSum)
	run := func(b *testing.B, opts ...core.BuildOption) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder(opts...)
			cpu, err := upl.NewInOrderCPU(bld, "cpu", prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			runToDone(b, sim, cpu.Done, 1_000_000)
		}
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("metrics", func(b *testing.B) { run(b, core.WithMetrics()) })
	b.Run("events", func(b *testing.B) {
		run(b, core.WithMetrics(),
			core.WithTracer(obs.NewEventTracer(4096).FilterInstances("cpu.*")))
	})
}
