package ccl_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/pcl"
	"liberty/internal/simtest"
)

// loadedNetwork wires packet sources and sinks to every node of a network
// built by build, runs it, and returns the per-node sinks.
type loadedNetwork struct {
	sim   *core.Sim
	nw    *ccl.Network
	srcs  []*pcl.Source
	sinks []*pcl.Sink
}

func loadNetwork(t *testing.T, seed int64, rate float64, count int,
	pattern ccl.PatternFn, size ccl.SizeFn,
	build func(b *core.Builder) (*ccl.Network, error)) *loadedNetwork {
	t.Helper()
	b := core.NewBuilder(core.WithSeed(seed))
	nw, err := build(b)
	if err != nil {
		t.Fatalf("build network: %v", err)
	}
	ln := &loadedNetwork{nw: nw}
	for i := 0; i < nw.Nodes; i++ {
		src, err := pcl.NewSource(fmt.Sprintf("src%d", i), core.Params{
			"rate":  rate,
			"count": count,
			"gen":   ccl.PacketGen(i, nw.Nodes, pattern, size),
		})
		if err != nil {
			t.Fatal(err)
		}
		snk, err := pcl.NewSink(fmt.Sprintf("snk%d", i), core.Params{"keep": true})
		if err != nil {
			t.Fatal(err)
		}
		b.Add(src)
		b.Add(snk)
		if err := nw.ConnectSource(b, i, src, "out"); err != nil {
			t.Fatal(err)
		}
		if err := nw.ConnectSink(b, i, snk, "in"); err != nil {
			t.Fatal(err)
		}
		ln.srcs = append(ln.srcs, src)
		ln.sinks = append(ln.sinks, snk)
	}
	ln.sim = simtest.Build(t, b)
	return ln
}

func (ln *loadedNetwork) totalReceived() int64 {
	var n int64
	for _, s := range ln.sinks {
		n += s.Received()
	}
	return n
}

func (ln *loadedNetwork) totalInjected() uint64 {
	var n uint64
	for _, s := range ln.srcs {
		n += s.Injected()
	}
	return n
}

// drain runs until all injected packets are delivered or maxCycles pass.
func (ln *loadedNetwork) drain(t *testing.T, maxCycles uint64) {
	t.Helper()
	ok, err := ln.sim.RunUntil(func(*core.Sim) bool {
		all := true
		for _, s := range ln.srcs {
			if !s.Exhausted() {
				all = false
				break
			}
		}
		return all && ln.totalReceived() == int64(ln.totalInjected())
	}, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("network did not drain: injected=%d received=%d after %d cycles",
			ln.totalInjected(), ln.totalReceived(), ln.sim.Now())
	}
}

func (ln *loadedNetwork) checkDeliveries(t *testing.T) {
	t.Helper()
	for node, s := range ln.sinks {
		for _, v := range s.Values() {
			pkt, ok := v.(*ccl.Packet)
			if !ok {
				t.Fatalf("sink %d received %T", node, v)
			}
			if pkt.Dst != node {
				t.Fatalf("packet %v delivered to node %d", pkt, node)
			}
		}
	}
}

func buildMesh4x4(b *core.Builder) (*ccl.Network, error) {
	return ccl.BuildMesh(b, "mesh", ccl.MeshCfg{W: 4, H: 4})
}

func TestMeshDeliversAllPackets(t *testing.T) {
	ln := loadNetwork(t, 1, 0.1, 20, ccl.UniformPattern, ccl.FixedSize(2), buildMesh4x4)
	ln.drain(t, 5000)
	ln.checkDeliveries(t)
	if got := ln.totalReceived(); got != 16*20 {
		t.Fatalf("received %d packets, want %d", got, 16*20)
	}
}

func TestMeshLatencyRespectsDistance(t *testing.T) {
	// Single packet from corner to corner on a 4x4 mesh: 6 hops minimum.
	b := core.NewBuilder()
	nw, err := buildMesh4x4(b)
	if err != nil {
		t.Fatal(err)
	}
	prod := simtest.NewProducer("prod", []any{
		&ccl.Packet{ID: 1, Src: 0, Dst: 15, Size: 1, Injected: 0},
	})
	snk, err := pcl.NewSink("snk", core.Params{"keep": true})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(prod)
	b.Add(snk)
	nw.ConnectSource(b, 0, prod, "out")
	nw.ConnectSink(b, 15, snk, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 100)
	if snk.Received() != 1 {
		t.Fatal("corner-to-corner packet not delivered")
	}
	pkt := snk.Values()[0].(*ccl.Packet)
	// 6 link traversals minimum.
	if pkt.Hops != 6 {
		t.Fatalf("hops = %d, want 6 (XY route 0 -> 15)", pkt.Hops)
	}
	if lat := snk.MeanLatency(); lat < 12 {
		t.Fatalf("latency %.0f too small for 6 hops with buffering", lat)
	}
}

func TestTorusWrapsAround(t *testing.T) {
	// On a 4x1 torus, node 0 -> node 3 should take the single wrap hop,
	// not three forward hops.
	b := core.NewBuilder()
	nw, err := ccl.BuildRing(b, "ring", 4, ccl.MeshCfg{})
	if err != nil {
		t.Fatal(err)
	}
	prod := simtest.NewProducer("prod", []any{
		&ccl.Packet{ID: 1, Src: 0, Dst: 3, Size: 1},
	})
	snk, err := pcl.NewSink("snk", core.Params{"keep": true})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(prod)
	b.Add(snk)
	nw.ConnectSource(b, 0, prod, "out")
	nw.ConnectSink(b, 3, snk, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 50)
	if snk.Received() != 1 {
		t.Fatal("packet not delivered on ring")
	}
	if pkt := snk.Values()[0].(*ccl.Packet); pkt.Hops != 1 {
		t.Fatalf("hops = %d, want 1 (wraparound)", pkt.Hops)
	}
}

func TestCrossbarDelivers(t *testing.T) {
	ln := loadNetwork(t, 3, 0.2, 10, ccl.UniformPattern, ccl.FixedSize(1),
		func(b *core.Builder) (*ccl.Network, error) {
			return ccl.BuildCrossbar(b, "xb", 6, 4)
		})
	ln.drain(t, 2000)
	ln.checkDeliveries(t)
}

func TestBusSerializesAndFilters(t *testing.T) {
	ln := loadNetwork(t, 5, 0.1, 8, ccl.UniformPattern, ccl.FixedSize(1),
		func(b *core.Builder) (*ccl.Network, error) {
			return ccl.BuildBus(b, "bus", ccl.BusCfg{Nodes: 4})
		})
	ln.drain(t, 4000)
	ln.checkDeliveries(t)
	if got := ln.totalReceived(); got != 4*8 {
		t.Fatalf("received %d, want %d", got, 4*8)
	}
}

func TestMeshDeterminism(t *testing.T) {
	run := func(kind core.SchedulerKind) (int64, float64) {
		b := core.NewBuilder(core.WithSeed(99), core.WithScheduler(kind))
		nw, err := ccl.BuildMesh(b, "mesh", ccl.MeshCfg{W: 3, H: 3})
		if err != nil {
			t.Fatal(err)
		}
		var sinks []*pcl.Sink
		for i := 0; i < nw.Nodes; i++ {
			src, _ := pcl.NewSource(fmt.Sprintf("src%d", i), core.Params{
				"rate": 0.3, "gen": ccl.PacketGen(i, nw.Nodes, ccl.UniformPattern, ccl.FixedSize(2)),
			})
			snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", i), nil)
			b.Add(src)
			b.Add(snk)
			nw.ConnectSource(b, i, src, "out")
			nw.ConnectSink(b, i, snk, "in")
			sinks = append(sinks, snk)
		}
		sim := simtest.Build(t, b)
		simtest.Run(t, sim, 300)
		var total int64
		var lat float64
		for _, s := range sinks {
			total += s.Received()
			lat += s.MeanLatency()
		}
		return total, lat
	}
	n1, l1 := run(core.SchedulerSequential)
	n4, l4 := run(core.SchedulerAuto)
	if n1 != n4 || l1 != l4 {
		t.Fatalf("auto run differs from sequential: (%d, %f) vs (%d, %f)", n1, l1, n4, l4)
	}
	if n1 == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestTrafficPatterns(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	n := 16
	t.Run("uniform avoids self", func(t *testing.T) {
		for i := 0; i < 1000; i++ {
			src := rng.IntN(n)
			if d := ccl.UniformPattern(rng, src, n); d == src || d < 0 || d >= n {
				t.Fatalf("bad uniform destination %d from %d", d, src)
			}
		}
	})
	t.Run("transpose", func(t *testing.T) {
		p := ccl.TransposePattern(4)
		if d := p(rng, 1, 16); d != 4 {
			t.Fatalf("transpose(0,1) -> %d, want 4", d)
		}
		if d := p(rng, 7, 16); d != 13 {
			t.Fatalf("transpose(3,1)=node7 -> %d, want 13", d)
		}
	})
	t.Run("bitcomplement", func(t *testing.T) {
		if d := ccl.BitComplementPattern(rng, 3, 16); d != 12 {
			t.Fatalf("complement(3) -> %d, want 12", d)
		}
	})
	t.Run("hotspot concentrates", func(t *testing.T) {
		p := ccl.HotspotPattern(5, 0.5)
		hits := 0
		for i := 0; i < 2000; i++ {
			if p(rng, 0, n) == 5 {
				hits++
			}
		}
		if hits < 800 {
			t.Fatalf("hotspot hit %d/2000, want roughly half or more", hits)
		}
	})
	t.Run("bimodal size", func(t *testing.T) {
		s := ccl.BimodalSize(1, 8, 0.75)
		short, long := 0, 0
		for i := 0; i < 1000; i++ {
			switch s(rng) {
			case 1:
				short++
			case 8:
				long++
			default:
				t.Fatal("unexpected size")
			}
		}
		if short < 600 {
			t.Fatalf("short fraction %d/1000 too low", short)
		}
	})
}

func TestPowerScalesWithLoad(t *testing.T) {
	measure := func(rate float64) ccl.PowerReport {
		b := core.NewBuilder(core.WithSeed(11))
		nw, err := ccl.BuildMesh(b, "mesh", ccl.MeshCfg{W: 3, H: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nw.Nodes; i++ {
			src, _ := pcl.NewSource(fmt.Sprintf("src%d", i), core.Params{
				"rate": rate, "gen": ccl.PacketGen(i, nw.Nodes, ccl.UniformPattern, ccl.FixedSize(2)),
			})
			snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", i), nil)
			b.Add(src)
			b.Add(snk)
			nw.ConnectSource(b, i, src, "out")
			nw.ConnectSink(b, i, snk, "in")
		}
		sim := simtest.Build(t, b)
		simtest.Run(t, sim, 500)
		return ccl.MeasurePower(sim, nw, ccl.DefaultPowerParams())
	}
	low := measure(0.05)
	high := measure(0.4)
	if high.DynamicTotal() <= low.DynamicTotal() {
		t.Fatalf("dynamic power should grow with load: low=%.4f high=%.4f",
			low.DynamicTotal(), high.DynamicTotal())
	}
	if low.LeakageTotal() != high.LeakageTotal() {
		t.Fatalf("leakage should be load independent: %.4f vs %.4f",
			low.LeakageTotal(), high.LeakageTotal())
	}
	if low.Total() <= 0 {
		t.Fatal("power should be positive")
	}
}

func TestThermalModelConverges(t *testing.T) {
	th := ccl.NewThermalModel(20, 0.01, 45)
	for i := 0; i < 10000; i++ {
		th.Step(500, 1e-5) // 500 mW
	}
	want := th.SteadyState(500) // 45 + 20*0.5 = 55
	if diff := th.Temp() - want; diff > 0.5 || diff < -0.5 {
		t.Fatalf("temperature %.2f, want ~%.2f", th.Temp(), want)
	}
	if want != 55 {
		t.Fatalf("steady state %.2f, want 55", want)
	}
}

func TestWirelessCollisionAndDelivery(t *testing.T) {
	b := core.NewBuilder(core.WithSeed(2))
	w, err := ccl.NewWireless("air", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(w)
	// Radios 0 and 1 both transmit to radio 2 persistently: they collide
	// until one wins a slot the other skips; with persistent retry and
	// fair defaults both eventually get through only if offers desync.
	// Producers gated on different cycles avoid livelock.
	p0 := simtest.NewProducer("p0", []any{&ccl.Packet{ID: 1, Src: 0, Dst: 2, Size: 1}})
	p0.Gate = func(c uint64) bool { return c%2 == 0 }
	p1 := simtest.NewProducer("p1", []any{&ccl.Packet{ID: 2, Src: 1, Dst: 2, Size: 1}})
	p1.Gate = func(c uint64) bool { return c%3 == 0 }
	snk, err := pcl.NewSink("snk", core.Params{"keep": true})
	if err != nil {
		t.Fatal(err)
	}
	dead0 := simtest.NewConsumer("d0", nil)
	dead1 := simtest.NewConsumer("d1", nil)
	b.Add(p0)
	b.Add(p1)
	b.Add(snk)
	b.Add(dead0)
	b.Add(dead1)
	b.Connect(p0, "out", w, "in")
	b.Connect(p1, "out", w, "in")
	b.Connect(w, "out", dead0, "in")
	b.Connect(w, "out", dead1, "in")
	b.Connect(w, "out", snk, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 60)
	if snk.Received() != 2 {
		t.Fatalf("radio 2 received %d packets, want 2", snk.Received())
	}
	if w.Collisions() == 0 {
		t.Fatal("expected at least one collision (both transmit at cycle 0)")
	}
}

func TestWirelessLossDropsPackets(t *testing.T) {
	b := core.NewBuilder(core.WithSeed(4))
	w, err := ccl.NewWireless("air", core.Params{"loss": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(w)
	p0 := simtest.NewProducer("p0", []any{&ccl.Packet{ID: 1, Src: 0, Dst: 1, Size: 1}})
	snk, _ := pcl.NewSink("snk", nil)
	dead := simtest.NewConsumer("d0", nil)
	b.Add(p0)
	b.Add(snk)
	b.Add(dead)
	b.Connect(p0, "out", w, "in")
	b.Connect(w, "out", dead, "in")
	b.Connect(w, "out", snk, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 20)
	if snk.Received() != 0 {
		t.Fatal("loss=1.0 should drop everything")
	}
	if sim.Stats().CounterValue("air.lost") == 0 {
		t.Fatal("lost counter should record the drop")
	}
}

// TestTorusBeatsMeshOnAverageLatency checks the topology claim: with
// wraparound links, average hop count (and thus latency) under uniform
// traffic drops versus a plain mesh of the same size.
func TestTorusBeatsMeshOnAverageLatency(t *testing.T) {
	measure := func(torus bool) float64 {
		b := core.NewBuilder(core.WithSeed(21))
		nw, err := ccl.BuildMesh(b, "net", ccl.MeshCfg{W: 4, H: 4, Torus: torus})
		if err != nil {
			t.Fatal(err)
		}
		var sinks []*pcl.Sink
		for i := 0; i < nw.Nodes; i++ {
			src, _ := pcl.NewSource(fmt.Sprintf("src%d", i), core.Params{
				"rate": 0.05,
				"gen":  ccl.PacketGen(i, nw.Nodes, ccl.UniformPattern, ccl.FixedSize(1)),
			})
			snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", i), nil)
			b.Add(src)
			b.Add(snk)
			nw.ConnectSource(b, i, src, "out")
			nw.ConnectSink(b, i, snk, "in")
			sinks = append(sinks, snk)
		}
		sim := simtest.Build(t, b)
		simtest.Run(t, sim, 2000)
		var sum float64
		var n int64
		for _, s := range sinks {
			h := sim.Stats().Histogram(s.Name() + ".latency")
			if h != nil {
				sum += h.Sum()
				n += h.Count()
			}
		}
		if n == 0 {
			t.Fatal("nothing delivered")
		}
		return sum / float64(n)
	}
	mesh := measure(false)
	torus := measure(true)
	if torus >= mesh {
		t.Fatalf("torus latency %.2f should beat mesh %.2f at low load", torus, mesh)
	}
}

// TestSweepShapeIsCanonical asserts the C5 curve's qualitative shape on a
// small mesh: latency grows monotonically-ish with load, and delivered
// throughput saturates below the heaviest offered load.
func TestSweepShapeIsCanonical(t *testing.T) {
	cfg := ccl.SweepCfg{W: 4, H: 4, Cycles: 800, Seed: 1}
	pts, err := ccl.RunSweep(cfg, []float64{0.02, 0.1, 0.4, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].MeanLatency >= pts[2].MeanLatency {
		t.Fatalf("latency should rise with load: %.1f -> %.1f",
			pts[0].MeanLatency, pts[2].MeanLatency)
	}
	// Saturation: throughput at 0.9 offered is far below 0.9.
	if pts[3].Throughput > 0.5 {
		t.Fatalf("throughput %.3f at 0.9 offered — no saturation?", pts[3].Throughput)
	}
	// Low load delivers what is offered.
	if pts[0].Throughput < 0.015 {
		t.Fatalf("low-load throughput %.3f too low", pts[0].Throughput)
	}
	// Power rises with load.
	if pts[0].DynamicMw >= pts[2].DynamicMw {
		t.Fatalf("dynamic power should rise with load: %.2f -> %.2f",
			pts[0].DynamicMw, pts[2].DynamicMw)
	}
}

// TestBurstyTrafficRaisesLatency compares smooth and bursty injection at
// comparable mean load: burstiness causes transient congestion and a
// higher mean latency — the traffic-abstraction work §3.3 describes.
func TestBurstyTrafficRaisesLatency(t *testing.T) {
	measure := func(bursty bool) float64 {
		b := core.NewBuilder(core.WithSeed(31))
		nw, err := ccl.BuildMesh(b, "net", ccl.MeshCfg{W: 3, H: 3})
		if err != nil {
			t.Fatal(err)
		}
		var sinks []*pcl.Sink
		for i := 0; i < nw.Nodes; i++ {
			params := core.Params{"rate": 0.12,
				"gen": ccl.PacketGen(i, nw.Nodes, ccl.UniformPattern, ccl.FixedSize(2))}
			if bursty {
				// ON duty cycle 1/3 at 3x the rate: same mean load.
				params = core.Params{"rate": 0.36,
					"gen": pcl.GenFn(ccl.BurstyGen(i, nw.Nodes, ccl.UniformPattern,
						ccl.FixedSize(2), 0.05, 0.1))}
			}
			src, err := pcl.NewSource(fmt.Sprintf("src%d", i), params)
			if err != nil {
				t.Fatal(err)
			}
			snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", i), nil)
			b.Add(src)
			b.Add(snk)
			nw.ConnectSource(b, i, src, "out")
			nw.ConnectSink(b, i, snk, "in")
			sinks = append(sinks, snk)
		}
		sim := simtest.Build(t, b)
		simtest.Run(t, sim, 4000)
		var sum float64
		var n int64
		for _, s := range sinks {
			h := sim.Stats().Histogram(s.Name() + ".latency")
			if h != nil {
				sum += h.Sum()
				n += h.Count()
			}
		}
		if n < 100 {
			t.Fatalf("only %d deliveries", n)
		}
		return sum / float64(n)
	}
	smooth := measure(false)
	burst := measure(true)
	if burst <= smooth {
		t.Fatalf("bursty latency %.2f should exceed smooth %.2f at equal mean load", burst, smooth)
	}
}

// TestAdaptiveRoutingDeliversAndRelievesHotRow sends all traffic from the
// left column to the right column (row-parallel flows): deterministic XY
// keeps each flow on its own row, but with an added hotspot row the
// adaptive router detours around congestion. The test asserts correctness
// under adaptive routing and that it beats XY latency under a skewed load.
func TestAdaptiveRoutingDeliversAndRelievesHotRow(t *testing.T) {
	measure := func(adaptive bool) (float64, int64) {
		b := core.NewBuilder(core.WithSeed(13))
		nw, err := ccl.BuildMesh(b, "net", ccl.MeshCfg{W: 4, H: 4, Adaptive: adaptive})
		if err != nil {
			t.Fatal(err)
		}
		var sinks []*pcl.Sink
		for i := 0; i < nw.Nodes; i++ {
			// Diagonal-heavy traffic: every node sends to the opposite
			// corner region, giving the router genuine X-vs-Y choices.
			src, _ := pcl.NewSource(fmt.Sprintf("src%d", i), core.Params{
				"rate": 0.12,
				"gen":  ccl.PacketGen(i, nw.Nodes, ccl.BitComplementPattern, ccl.FixedSize(2)),
			})
			snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", i), core.Params{"keep": true})
			b.Add(src)
			b.Add(snk)
			nw.ConnectSource(b, i, src, "out")
			nw.ConnectSink(b, i, snk, "in")
			sinks = append(sinks, snk)
		}
		sim := simtest.Build(t, b)
		simtest.Run(t, sim, 3000)
		var sum float64
		var cnt int64
		for node, s := range sinks {
			for _, v := range s.Values() {
				if v.(*ccl.Packet).Dst != node {
					t.Fatalf("adaptive=%v: misdelivered packet at node %d", adaptive, node)
				}
			}
			h := sim.Stats().Histogram(s.Name() + ".latency")
			if h != nil {
				sum += h.Sum()
				cnt += h.Count()
			}
		}
		if cnt == 0 {
			t.Fatal("nothing delivered")
		}
		return sum / float64(cnt), cnt
	}
	xyLat, xyN := measure(false)
	adLat, adN := measure(true)
	if adN < xyN*9/10 {
		t.Fatalf("adaptive delivered %d vs XY %d — throughput collapse", adN, xyN)
	}
	if adLat >= xyLat {
		t.Logf("note: adaptive latency %.2f vs XY %.2f (load may be below congestion point)",
			adLat, xyLat)
	}
}
