package ccl_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/obs"
	"liberty/internal/pcl"
	"liberty/internal/simtest"
)

// TestLinkRing drives a link's in-flight ring through many wrap-arounds:
// packets leave in the order they entered, a full ring refuses the next
// packet, and Congestion counts what the ring holds at every cycle.
func TestLinkRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("capacity%d", capacity), func(t *testing.T) {
			const n = 40
			pkts := make([]any, n)
			for i := range pkts {
				pkts[i] = &ccl.Packet{ID: uint64(i), Size: 1}
			}
			open := false
			b := core.NewBuilder()
			prod := simtest.NewProducer("p", pkts)
			link, err := ccl.NewLink("l", core.Params{"latency": 2, "capacity": capacity})
			if err != nil {
				t.Fatal(err)
			}
			// Irregular acceptance keeps the ring's fill level moving.
			cons := simtest.NewConsumer("c", func(cycle uint64, _ any) bool { return open && cycle%3 != 0 })
			b.Add(prod)
			b.Add(link)
			b.Add(cons)
			b.Connect(prod, "out", link, "in")
			b.Connect(link, "out", cons, "in")
			sim := simtest.Build(t, b)

			simtest.Run(t, sim, 20)
			if prod.Sent() != capacity || link.Congestion() != capacity {
				t.Fatalf("far side closed: link took %d packets, congestion %d; want %d and %d",
					prod.Sent(), link.Congestion(), capacity, capacity)
			}
			open = true
			// A Size-1 packet finishes serializing in the cycle it enters,
			// so between cycles Congestion is exactly the packets held.
			for len(cons.Got) < n {
				if sim.Now() > 1000 {
					t.Fatalf("stalled: %d of %d delivered", len(cons.Got), n)
				}
				simtest.Run(t, sim, 1)
				held := prod.Sent() - len(cons.Got)
				if got := link.Congestion(); got != held || held > capacity {
					t.Fatalf("cycle %d: congestion %d, packets held %d (capacity %d)", sim.Now(), got, held, capacity)
				}
			}
			for i, v := range cons.Got {
				if id := v.(*ccl.Packet).ID; id != uint64(i) {
					t.Fatalf("delivery %d is packet %d", i, id)
				}
			}
		})
	}
}

// TestWirelessSingleSlot runs two contending radios through a lossy
// medium: every granted frame is either lost or delivered, each radio's
// frames arrive in order, and a frame's air time passes before the next
// is delivered, since one frame is on the air at a time.
func TestWirelessSingleSlot(t *testing.T) {
	const perRadio, size = 8, 3
	b := core.NewBuilder(core.WithSeed(5))
	w, err := ccl.NewWireless("air", core.Params{"loss": 0.3, "mac": "csma"})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(w)
	var prods []*simtest.Producer
	for r := 0; r < 2; r++ {
		var items []any
		for i := 0; i < perRadio; i++ {
			items = append(items, &ccl.Packet{ID: uint64(r*100 + i), Src: r, Dst: 2, Size: size})
		}
		p := simtest.NewProducer(simtest.Name("p", r), items)
		prods = append(prods, p)
		b.Add(p)
		b.Connect(p, "out", w, "in")
	}
	cons := simtest.NewConsumer("rx", nil)
	b.Add(cons)
	for r := 0; r < 2; r++ {
		d := simtest.NewConsumer(simtest.Name("d", r), nil)
		b.Add(d)
		b.Connect(w, "out", d, "in")
	}
	b.Connect(w, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 400)

	stats := sim.Stats()
	sent, lost := stats.CounterValue("air.sent"), stats.CounterValue("air.lost")
	if !prods[0].Done() || !prods[1].Done() || sent+lost != 2*perRadio {
		t.Fatalf("granted %d+%d frames (sent+lost), want %d", sent, lost, 2*perRadio)
	}
	if lost == 0 || w.Collisions() == 0 {
		t.Fatalf("lost %d, collisions %d: want both > 0", lost, w.Collisions())
	}
	if int64(len(cons.Got)) != sent {
		t.Fatalf("radio 2 received %d frames, %d were sent", len(cons.Got), sent)
	}
	last := map[int]int64{0: -1, 1: -1}
	for i, v := range cons.Got {
		pkt := v.(*ccl.Packet)
		if seq := int64(pkt.ID) % 100; seq <= last[pkt.Src] {
			t.Fatalf("radio %d's frame %d arrived after frame %d", pkt.Src, seq, last[pkt.Src])
		} else {
			last[pkt.Src] = seq
		}
		if i > 0 && cons.GotAt[i]-cons.GotAt[i-1] < size {
			t.Fatalf("deliveries at cycles %d and %d overlap on the air", cons.GotAt[i-1], cons.GotAt[i])
		}
	}
}

// TestSteadyCycleAllocs pins a loaded mesh's heap cost: once warm, an
// 8×8 mesh at rate 0.95 allocates per cycle no more than the packets its
// sources inject (one *Packet each), plus slack for the rare growth of a
// statistics table.
func TestSteadyCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const nodes = 64
	b := core.NewBuilder(core.WithSeed(1))
	nw, err := ccl.BuildMesh(b, "mesh", ccl.MeshCfg{W: 8, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	var srcs []*pcl.Source
	for i := 0; i < nodes; i++ {
		src, err := pcl.NewSource(simtest.Name("src", i), core.Params{
			"rate": 0.95,
			"gen":  ccl.PacketGen(i, nodes, ccl.UniformPattern, ccl.FixedSize(4)),
		})
		if err != nil {
			t.Fatal(err)
		}
		snk, err := pcl.NewSink(simtest.Name("snk", i), nil)
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
		srcs = append(srcs, src)
	}
	sim := simtest.Build(t, b)
	injected := func() (n uint64) {
		for _, s := range srcs {
			n += s.Injected()
		}
		return n
	}
	simtest.Run(t, sim, 500) // warm: buffers fill, every table reaches its size

	const cycles = 1000
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, pkts := ms.Mallocs, injected()
	simtest.Run(t, sim, cycles)
	runtime.ReadMemStats(&ms)
	perCycle := float64(ms.Mallocs-mallocs) / cycles
	pktsPerCycle := float64(injected()-pkts) / cycles
	if pktsPerCycle == 0 || perCycle > pktsPerCycle+0.5 {
		t.Fatalf("%.2f allocations per cycle for %.2f injected packets per cycle", perCycle, pktsPerCycle)
	}
	t.Logf("%.2f allocations per cycle, %.2f injected packets per cycle", perCycle, pktsPerCycle)
}

// TestStampFirstCycleAllocs bounds what a stamped session allocates on
// its first cycle: its statistics are declared with its instances, so the
// first Step of a second 8x8 sweep session allocates only the engine's
// and the templates' first-use buffers, not a counter, histogram or name
// per statistic.
func TestStampFirstCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sim := stampedSweepSession(t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	const bound = 600
	if n := ms.Mallocs - mallocs; n > bound {
		t.Fatalf("the first cycle of a stamped session allocated %d times, want <= %d", n, bound)
	} else {
		t.Logf("the first cycle of a stamped session allocated %d times", n)
	}
}

// stampedSweepSession returns the second session of the 8x8 sweep's
// program, a stamp, with every source at rate 0.3.
func stampedSweepSession(tb testing.TB) *core.Sim {
	tb.Helper()
	sp, err := ccl.NewSweepProgram(ccl.SweepCfg{W: 8, H: 8, Pattern: "uniform", Cycles: 500, Seed: 1000, Parallel: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var sim *core.Sim
	for i := 0; i < 2; i++ { // the first session is the compiled netlist; the second is stamped
		if sim, err = sp.Program().NewSim(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		sim.Instance(simtest.Name("src", i)).(*pcl.Source).SetRate(0.3)
	}
	return sim
}

// TestStatsDocAllocs bounds what one statistics document of a loaded 8x8
// sweep session allocates: the writer appends it into a pooled buffer
// in one walk of the statistics, so it allocates only that walk's name
// list, not a map entry, a boxed value or an encoder buffer per
// statistic.
func TestStatsDocAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sim := stampedSweepSession(t)
	if err := sim.Run(200); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(10, func() { err = obs.WriteJSON(io.Discard, sim) })
	if err != nil {
		t.Fatal(err)
	}
	const bound = 16
	if allocs > bound {
		t.Fatalf("one statistics document of the 8x8 session allocated %.0f times, want <= %d", allocs, bound)
	}
	t.Logf("one statistics document of the 8x8 session allocated %.0f times", allocs)
}

// BenchmarkWriteJSON writes the statistics document of the 8x8 sweep
// session after 200 cycles.
func BenchmarkWriteJSON(b *testing.B) {
	sim := stampedSweepSession(b)
	if err := sim.Run(200); err != nil {
		b.Fatal(err)
	}
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w countingWriter
		if err := obs.WriteJSON(&w, sim); err != nil {
			b.Fatal(err)
		}
		n = int(w)
	}
	b.SetBytes(int64(n))
}

// countingWriter counts the bytes written to it.
type countingWriter int

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}
