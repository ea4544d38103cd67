package pcl_test

import (
	"fmt"
	"reflect"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/pcl"
	"liberty/internal/simtest"
)

func mustQueue(t *testing.T, name string, p core.Params) *pcl.Queue {
	t.Helper()
	q, err := pcl.NewQueue(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQueueFIFOOrder(t *testing.T) {
	prod := simtest.NewProducer("prod", simtest.IntSeq(20))
	q := mustQueue(t, "q", core.Params{"capacity": 4})
	cons := simtest.NewConsumer("cons", nil)
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(q)
	b.Add(cons)
	b.Connect(prod, "out", q, "in")
	b.Connect(q, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 30)
	simtest.EqualInts(t, cons.Ints(t), seq(20), "fifo order")
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestQueueCapacityBackpressure(t *testing.T) {
	prod := simtest.NewProducer("prod", simtest.IntSeq(10))
	q := mustQueue(t, "q", core.Params{"capacity": 3})
	// Consumer accepts nothing for the first 10 cycles.
	cons := simtest.NewConsumer("cons", func(cycle uint64, v any) bool { return cycle >= 10 })
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(q)
	b.Add(cons)
	b.Connect(prod, "out", q, "in")
	b.Connect(q, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 5)
	if got := q.Len(); got != 3 {
		t.Fatalf("queue holds %d entries, want 3 (capacity)", got)
	}
	if prod.Sent() != 3 {
		t.Fatalf("producer got %d acks, want 3", prod.Sent())
	}
	simtest.Run(t, sim, 25)
	simtest.EqualInts(t, cons.Ints(t), seq(10), "drained order")
	if sim.Stats().CounterValue("q.full_stalls") == 0 {
		t.Fatal("expected full_stalls to be counted")
	}
}

// TestQueueSelectFn demonstrates the paper's C1 reuse claim at the policy
// level: the same template dequeues out of order under a custom selection
// function (instruction-window behavior).
func TestQueueSelectFn(t *testing.T) {
	// Select odd values first, then evens, each oldest-first.
	oddFirst := pcl.SelectFn(func(entries []any) []int {
		var odds, evens []int
		for i, e := range entries {
			if e.(int)%2 == 1 {
				odds = append(odds, i)
			} else {
				evens = append(evens, i)
			}
		}
		return append(odds, evens...)
	})
	prod := simtest.NewProducer("prod", simtest.IntSeq(6))
	prod.Gate = func(cycle uint64) bool { return cycle < 6 } // stop offering after warm-up
	q := mustQueue(t, "q", core.Params{"capacity": 8, "select": oddFirst})
	// Accept only after the queue has buffered everything.
	cons := simtest.NewConsumer("cons", func(cycle uint64, v any) bool { return cycle >= 8 })
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(q)
	b.Add(cons)
	b.Connect(prod, "out", q, "in")
	b.Connect(q, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 20)
	simtest.EqualInts(t, cons.Ints(t), []int{1, 3, 5, 0, 2, 4}, "odd-first selection")
}

func TestQueueMultiEnqueueDequeue(t *testing.T) {
	// Two producers, two consumer connections: width scales bandwidth.
	p1 := simtest.NewProducer("p1", []any{1, 3, 5, 7})
	p2 := simtest.NewProducer("p2", []any{2, 4, 6, 8})
	q := mustQueue(t, "q", core.Params{"capacity": 8})
	cons := simtest.NewConsumer("cons", nil)
	b := core.NewBuilder()
	b.Add(p1)
	b.Add(p2)
	b.Add(q)
	b.Add(cons)
	b.Connect(p1, "out", q, "in")
	b.Connect(p2, "out", q, "in")
	b.Connect(q, "out", cons, "in")
	b.Connect(q, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 10)
	if len(cons.Got) != 8 {
		t.Fatalf("received %d values, want 8", len(cons.Got))
	}
	if v := sim.Stats().CounterValue("q.enqueues"); v != 8 {
		t.Fatalf("enqueues = %d, want 8", v)
	}
}

func TestArbiterRoundRobinFairness(t *testing.T) {
	b := core.NewBuilder()
	var prods []*simtest.Producer
	arb, err := pcl.NewArbiter("arb", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(arb)
	for i := 0; i < 4; i++ {
		p := simtest.NewProducer(name("p", i), simtest.IntSeq(100))
		prods = append(prods, p)
		b.Add(p)
		b.Connect(p, "out", arb, "in")
	}
	cons := simtest.NewConsumer("cons", nil)
	b.Add(cons)
	b.Connect(arb, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 40)
	// 40 cycles, 4 contenders: each should win exactly 10.
	for i, p := range prods {
		if p.Sent() != 10 {
			t.Fatalf("producer %d won %d grants, want 10 (round-robin)", i, p.Sent())
		}
	}
}

func TestArbiterFixedPriorityStarves(t *testing.T) {
	b := core.NewBuilder()
	arb, err := pcl.NewArbiter("arb", core.Params{"policy": "fixed"})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(arb)
	hi := simtest.NewProducer("hi", simtest.IntSeq(100))
	lo := simtest.NewProducer("lo", simtest.IntSeq(100))
	b.Add(hi)
	b.Add(lo)
	b.Connect(hi, "out", arb, "in")
	b.Connect(lo, "out", arb, "in")
	cons := simtest.NewConsumer("cons", nil)
	b.Add(cons)
	b.Connect(arb, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 20)
	if hi.Sent() != 20 || lo.Sent() != 0 {
		t.Fatalf("fixed priority: hi=%d lo=%d, want 20/0", hi.Sent(), lo.Sent())
	}
}

func TestArbiterCustomPick(t *testing.T) {
	// Grant the highest-valued request (a max-arbiter).
	maxPick := pcl.PickFn(func(reqs []any, last int) []int {
		best, bestV := -1, -1
		for i, r := range reqs {
			if r == nil {
				continue
			}
			if v := r.(int); v > bestV {
				best, bestV = i, v
			}
		}
		if best < 0 {
			return nil
		}
		return []int{best}
	})
	b := core.NewBuilder()
	arb, err := pcl.NewArbiter("arb", core.Params{"pick": maxPick})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(arb)
	small := simtest.NewProducer("small", []any{1, 1, 1})
	big := simtest.NewProducer("big", []any{9, 9, 9})
	b.Add(small)
	b.Add(big)
	b.Connect(small, "out", arb, "in")
	b.Connect(big, "out", arb, "in")
	cons := simtest.NewConsumer("cons", nil)
	b.Add(cons)
	b.Connect(arb, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 3)
	simtest.EqualInts(t, cons.Ints(t), []int{9, 9, 9}, "max-arbiter grants")
}

func TestDelayExactLatency(t *testing.T) {
	prod := simtest.NewProducer("prod", simtest.IntSeq(5))
	d, err := pcl.NewDelay("d", core.Params{"latency": 3, "capacity": 8})
	if err != nil {
		t.Fatal(err)
	}
	cons := simtest.NewConsumer("cons", nil)
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(d)
	b.Add(cons)
	b.Connect(prod, "out", d, "in")
	b.Connect(d, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 12)
	simtest.EqualInts(t, cons.Ints(t), seq(5), "delayed order")
	// Item accepted at cycle c departs at c+3: first item accepted cycle 0
	// arrives cycle 3.
	for i, at := range cons.GotAt {
		if want := uint64(i + 3); at != want {
			t.Fatalf("item %d arrived at cycle %d, want %d", i, at, want)
		}
	}
}

func TestDelayCapacityOne(t *testing.T) {
	// capacity 1, latency 2: throughput limited to one item per 2 cycles.
	prod := simtest.NewProducer("prod", simtest.IntSeq(4))
	d, err := pcl.NewDelay("d", core.Params{"latency": 2, "capacity": 1})
	if err != nil {
		t.Fatal(err)
	}
	cons := simtest.NewConsumer("cons", nil)
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(d)
	b.Add(cons)
	b.Connect(prod, "out", d, "in")
	b.Connect(d, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 20)
	if len(cons.Got) != 4 {
		t.Fatalf("received %d, want 4", len(cons.Got))
	}
	for i := 1; i < len(cons.GotAt); i++ {
		if gap := cons.GotAt[i] - cons.GotAt[i-1]; gap < 2 {
			t.Fatalf("arrivals %d apart, want >= 2 (capacity-1 delay)", gap)
		}
	}
}

func TestMemArrayReadWrite(t *testing.T) {
	reqs := []any{
		pcl.MemReq{Op: pcl.MemWrite, Addr: 0x40, Data: 123, Tag: "w"},
		pcl.MemReq{Op: pcl.MemRead, Addr: 0x40, Tag: "r"},
	}
	prod := simtest.NewProducer("prod", reqs)
	m, err := pcl.NewMemArray("mem", core.Params{"words": 64, "latency": 2})
	if err != nil {
		t.Fatal(err)
	}
	cons := simtest.NewConsumer("cons", nil)
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(m)
	b.Add(cons)
	b.Connect(prod, "out", m, "req")
	b.Connect(m, "resp", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 10)
	if len(cons.Got) != 2 {
		t.Fatalf("got %d responses, want 2", len(cons.Got))
	}
	w := cons.Got[0].(pcl.MemResp)
	r := cons.Got[1].(pcl.MemResp)
	if w.Tag != "w" || r.Tag != "r" {
		t.Fatalf("tags: %v, %v", w.Tag, r.Tag)
	}
	if r.Data != 123 {
		t.Fatalf("read returned %d, want 123", r.Data)
	}
	if m.Peek(0x40/4) != 123 {
		t.Fatal("backing store not updated")
	}
}

func TestSourceRateAndCount(t *testing.T) {
	b := core.NewBuilder(core.WithSeed(7))
	src, err := pcl.NewSource("src", core.Params{"rate": 0.5, "count": 10})
	if err != nil {
		t.Fatal(err)
	}
	snk, err := pcl.NewSink("snk", core.Params{"keep": true})
	if err != nil {
		t.Fatal(err)
	}
	b.Add(src)
	b.Add(snk)
	b.Connect(src, "out", snk, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 100)
	if src.Injected() != 10 {
		t.Fatalf("injected %d, want 10 (count limit)", src.Injected())
	}
	if !src.Exhausted() {
		t.Fatal("source should be exhausted")
	}
	if snk.Received() != 10 {
		t.Fatalf("sink received %d, want 10", snk.Received())
	}
	// Sequence preserved.
	for i, v := range snk.Values() {
		if v.(int) != i {
			t.Fatalf("values %v not sequential", snk.Values())
		}
	}
}

type stampedVal struct {
	at uint64
	v  int
}

func (s stampedVal) InjectedAt() uint64 { return s.at }

func TestSinkLatencyMeasurement(t *testing.T) {
	b := core.NewBuilder()
	prod := simtest.NewProducer("prod", []any{
		stampedVal{at: 0, v: 1}, stampedVal{at: 0, v: 2},
	})
	d, err := pcl.NewDelay("d", core.Params{"latency": 4, "capacity": 4})
	if err != nil {
		t.Fatal(err)
	}
	snk, err := pcl.NewSink("snk", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(prod)
	b.Add(d)
	b.Add(snk)
	b.Connect(prod, "out", d, "in")
	b.Connect(d, "out", snk, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 10)
	if snk.Received() != 2 {
		t.Fatalf("received %d, want 2", snk.Received())
	}
	if snk.MeanLatency() < 4 {
		t.Fatalf("mean latency %.1f, want >= 4", snk.MeanLatency())
	}
}

func TestTeeAllMode(t *testing.T) {
	prod := simtest.NewProducer("prod", simtest.IntSeq(5))
	tee, err := pcl.NewTee("tee", nil)
	if err != nil {
		t.Fatal(err)
	}
	c1 := simtest.NewConsumer("c1", nil)
	// c2 refuses odd cycles: in "all" mode both must accept, so delivery
	// happens only on even cycles and both sides see identical streams.
	c2 := simtest.NewConsumer("c2", func(cycle uint64, v any) bool { return cycle%2 == 0 })
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(tee)
	b.Add(c1)
	b.Add(c2)
	b.Connect(prod, "out", tee, "in")
	b.Connect(tee, "out", c1, "in")
	b.Connect(tee, "out", c2, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 12)
	simtest.EqualInts(t, c1.Ints(t), c2.Ints(t), "tee branches identical")
	if len(c1.Got) == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestRouteSteersByFunction(t *testing.T) {
	route := pcl.RouteFn(func(v any) int { return v.(int) % 3 })
	prod := simtest.NewProducer("prod", simtest.IntSeq(9))
	r, err := pcl.NewRoute("r", core.Params{"route": route})
	if err != nil {
		t.Fatal(err)
	}
	var cons [3]*simtest.Consumer
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(r)
	b.Connect(prod, "out", r, "in")
	for i := range cons {
		cons[i] = simtest.NewConsumer(name("c", i), nil)
		b.Add(cons[i])
		b.Connect(r, "out", cons[i], "in")
	}
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 12)
	simtest.EqualInts(t, cons[0].Ints(t), []int{0, 3, 6}, "lane 0")
	simtest.EqualInts(t, cons[1].Ints(t), []int{1, 4, 7}, "lane 1")
	simtest.EqualInts(t, cons[2].Ints(t), []int{2, 5, 8}, "lane 2")
}

func TestRouteOutOfRangeIsContractError(t *testing.T) {
	route := pcl.RouteFn(func(v any) int { return 99 })
	prod := simtest.NewProducer("prod", simtest.IntSeq(1))
	r, err := pcl.NewRoute("r", core.Params{"route": route})
	if err != nil {
		t.Fatal(err)
	}
	cons := simtest.NewConsumer("c", nil)
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(r)
	b.Add(cons)
	b.Connect(prod, "out", r, "in")
	b.Connect(r, "out", cons, "in")
	sim := simtest.Build(t, b)
	if err := sim.Step(); err == nil {
		t.Fatal("out-of-range route should fail the step")
	}
}

func TestFilterDropsNonMatching(t *testing.T) {
	pred := pcl.PredFn(func(v any) bool { return v.(int)%2 == 0 })
	prod := simtest.NewProducer("prod", simtest.IntSeq(10))
	f, err := pcl.NewFilter("f", core.Params{"pred": pred})
	if err != nil {
		t.Fatal(err)
	}
	cons := simtest.NewConsumer("c", nil)
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(f)
	b.Add(cons)
	b.Connect(prod, "out", f, "in")
	b.Connect(f, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 15)
	simtest.EqualInts(t, cons.Ints(t), []int{0, 2, 4, 6, 8}, "filtered stream")
	if f.Dropped() != 5 {
		t.Fatalf("dropped %d, want 5", f.Dropped())
	}
}

func TestTemplateRegistryInstantiation(t *testing.T) {
	// Every PCL template must be reachable through the registry (the LSS
	// path).
	b := core.NewBuilder()
	if _, err := b.Instantiate("pcl.queue", "q", core.Params{"capacity": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Instantiate("pcl.source", "s", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Instantiate("pcl.sink", "k", nil); err != nil {
		t.Fatal(err)
	}
	q := b.Instantiate
	_ = q
	for _, name := range []string{"pcl.arbiter", "pcl.delay", "pcl.memarray", "pcl.tee"} {
		if _, ok := core.DefaultRegistry.Lookup(name); !ok {
			t.Errorf("template %s not registered", name)
		}
	}
	// Bad params surface as instantiate errors.
	if _, err := b.Instantiate("pcl.queue", "bad", core.Params{"capacity": 0}); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

func name(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestClockGateDividesThroughput(t *testing.T) {
	prod := simtest.NewProducer("prod", simtest.IntSeq(10))
	g, err := pcl.NewClockGate("g", core.Params{"divisor": 4})
	if err != nil {
		t.Fatal(err)
	}
	cons := simtest.NewConsumer("cons", nil)
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(g)
	b.Add(cons)
	b.Connect(prod, "out", g, "in")
	b.Connect(g, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 41)
	// One transfer every 4 cycles: cycles 0,4,8,...,36 = at most 10+1.
	if len(cons.Got) != 10 {
		t.Fatalf("received %d values, want 10", len(cons.Got))
	}
	for i := 1; i < len(cons.GotAt); i++ {
		if gap := cons.GotAt[i] - cons.GotAt[i-1]; gap != 4 {
			t.Fatalf("arrivals %d cycles apart, want 4", gap)
		}
	}
	simtest.EqualInts(t, cons.Ints(t), seq(10), "order through clock gate")
}

func TestClockGatePhase(t *testing.T) {
	prod := simtest.NewProducer("prod", simtest.IntSeq(3))
	g, err := pcl.NewClockGate("g", core.Params{"divisor": 3, "phase": 2})
	if err != nil {
		t.Fatal(err)
	}
	cons := simtest.NewConsumer("cons", nil)
	b := core.NewBuilder()
	b.Add(prod)
	b.Add(g)
	b.Add(cons)
	b.Connect(prod, "out", g, "in")
	b.Connect(g, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, 10)
	if len(cons.GotAt) == 0 || cons.GotAt[0] != 2 {
		t.Fatalf("first arrival at %v, want cycle 2 (phase)", cons.GotAt)
	}
}

// TestClockGateClusterCloses: with no data offered a clock gate sends
// nothing and nacks on every cycle, ticking or not, so its cluster closes
// on idle cycles like any other. For every divisor and phase, the engine,
// the engine under check mode and the reference agree on every status of
// every cycle and on what the sink received, and the engine closes the
// gate's cluster at least once.
func TestClockGateClusterCloses(t *testing.T) {
	const cycles = 60
	type run struct {
		hashes []string
		got    []any
		at     []uint64
		closed uint64
	}
	build := func(divisor, phase int, opts ...core.BuildOption) run {
		// Six items, withheld every fifth cycle: idle gaps while data is
		// pending, then an idle tail.
		prod := simtest.NewProducer("prod", simtest.IntSeq(6))
		prod.Gate = func(cycle uint64) bool { return cycle%5 != 0 }
		g, err := pcl.NewClockGate("g", core.Params{"divisor": divisor, "phase": phase})
		if err != nil {
			t.Fatal(err)
		}
		cons := simtest.NewConsumer("cons", nil)
		b := core.NewBuilder(append(opts, core.WithMetrics())...)
		b.Add(prod)
		b.Add(g)
		b.Add(cons)
		b.Connect(prod, "out", g, "in")
		b.Connect(g, "out", cons, "in")
		sim := simtest.Build(t, b)
		var r run
		for i := 0; i < cycles; i++ {
			simtest.Run(t, sim, 1)
			h := ""
			for _, c := range sim.Conns() {
				h += fmt.Sprintf("%v/%v/%v ", c.Status(core.SigData), c.Status(core.SigEnable), c.Status(core.SigAck))
			}
			r.hashes = append(r.hashes, h)
		}
		r.got, r.at, r.closed = cons.Got, cons.GotAt, sim.Metrics().ClosedClusterCycles()
		return r
	}
	for _, divisor := range []int{1, 2, 4} {
		for phase := 0; phase < divisor; phase++ {
			ref := build(divisor, phase, core.WithScheduler(core.SchedulerSequential))
			if len(ref.got) != 6 {
				t.Fatalf("divisor %d phase %d: reference received %d items, want 6", divisor, phase, len(ref.got))
			}
			for _, eng := range []struct {
				name string
				opts []core.BuildOption
			}{{"engine", nil}, {"check", []core.BuildOption{core.WithActivityCheck()}}} {
				got := build(divisor, phase, eng.opts...)
				for i := range ref.hashes {
					if got.hashes[i] != ref.hashes[i] {
						t.Fatalf("divisor %d phase %d %s: cycle %d statuses %s, reference %s",
							divisor, phase, eng.name, i, got.hashes[i], ref.hashes[i])
					}
				}
				if !reflect.DeepEqual(got.got, ref.got) || !reflect.DeepEqual(got.at, ref.at) {
					t.Fatalf("divisor %d phase %d %s: received %v at %v, reference %v at %v",
						divisor, phase, eng.name, got.got, got.at, ref.got, ref.at)
				}
				if eng.name == "engine" && got.closed == 0 {
					t.Errorf("divisor %d phase %d: the gate's cluster never closed", divisor, phase)
				}
			}
		}
	}
}

// TestArbiterAbortedCycleLeaksNoGrant: the arbiter's grants are scratch
// of its reactive handler, with no cycle-start handler to reset them. A
// Step that aborts after the grant was published must not carry it into
// the next Step — which re-runs the same cycle — under the sequential
// oracle and the sparse engine alike: what the consumer receives, and
// when, equals a twin that never aborted.
func TestArbiterAbortedCycleLeaksNoGrant(t *testing.T) {
	type outcome struct {
		got []int
		at  []uint64
	}
	run := func(kind core.SchedulerKind, abortAt uint64) outcome {
		b := core.NewBuilder(core.WithScheduler(kind))
		arb, err := pcl.NewArbiter("arb", nil)
		if err != nil {
			t.Fatal(err)
		}
		b.Add(arb)
		for i := 0; i < 3; i++ {
			p := simtest.NewProducer(name("p", i), simtest.IntSeq(100))
			// Idle stretches, so the arbiter's cluster also closes and reopens.
			p.Gate = func(cycle uint64) bool { return cycle%7 < 4 }
			b.Add(p)
			b.Connect(p, "out", arb, "in")
		}
		armed := abortAt > 0
		cons := simtest.NewConsumer("cons", func(cycle uint64, v any) bool {
			if armed && cycle == abortAt {
				armed = false
				panic(&core.ContractError{Op: "accept", Where: "cons", Detail: "boom after the grant"})
			}
			return true
		})
		b.Add(cons)
		b.Connect(arb, "out", cons, "in")
		sim := simtest.Build(t, b)
		aborted := false
		for sim.Now() < 40 {
			if err := sim.Step(); err != nil {
				if aborted || sim.Now() != abortAt {
					t.Fatalf("%s: cycle %d: %v", kind, sim.Now(), err)
				}
				aborted = true
			}
		}
		if aborted != (abortAt > 0) {
			t.Fatalf("%s: abort at cycle %d did not happen", kind, abortAt)
		}
		return outcome{cons.Ints(t), cons.GotAt}
	}
	want := run(core.SchedulerSequential, 0)
	if len(want.got) == 0 {
		t.Fatal("nothing was granted; the test would compare idle runs")
	}
	for _, kind := range []core.SchedulerKind{core.SchedulerSequential, core.SchedulerSparse} {
		for _, abortAt := range []uint64{0, 8, 9} {
			if got := run(kind, abortAt); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, abort at %d: consumer received %v at %v, want %v at %v",
					kind, abortAt, got.got, got.at, want.got, want.at)
			}
		}
	}
}

// TestQueueReactsOncePerCycle: a queue is MarkSequential and its react
// reads only its In port, so under the engine the ack on its Out port
// wakes nobody. Fed every cycle, each queue of a queue → queue → consumer
// chain reacts exactly once per cycle: on the offer at its input.
func TestQueueReactsOncePerCycle(t *testing.T) {
	const cycles = 60
	prod := simtest.NewProducer("prod", simtest.IntSeq(2*cycles))
	q1 := mustQueue(t, "q1", core.Params{"capacity": 2})
	q2 := mustQueue(t, "q2", core.Params{"capacity": 2})
	cons := simtest.NewConsumer("cons", nil)
	b := core.NewBuilder(core.WithMetrics())
	b.Add(prod)
	b.Add(q1)
	b.Add(q2)
	b.Add(cons)
	b.Connect(prod, "out", q1, "in")
	b.Connect(q1, "out", q2, "in")
	b.Connect(q2, "out", cons, "in")
	sim := simtest.Build(t, b)
	simtest.Run(t, sim, cycles)
	if got := len(cons.Ints(t)); got != cycles-2 {
		t.Fatalf("consumer took %d items in %d cycles, want %d", got, cycles, cycles-2)
	}
	for _, im := range sim.Metrics().Instances() {
		if (im.Name == "q1" || im.Name == "q2") && im.Reacts != cycles {
			t.Errorf("%s reacted %d times in %d cycles, want once per cycle", im.Name, im.Reacts, cycles)
		}
	}
}

// loopback receives the arbiter's out lane and feeds its second input. Its
// In port's control function acks every lane, empty or not; on odd cycles
// its Out lane mirrors whether anything arrived, closing a combinational
// loop through the arbiter, and on even cycles it sends nothing from
// cycle start, which opens the loop.
type loopback struct {
	core.Base
	in, out *core.Port
	got     []int
}

func newLoopback() *loopback {
	l := &loopback{}
	l.Init("loop", l)
	l.in = l.AddInPort("in", core.PortOpts{Control: func(core.Status, core.Status, any) core.Status { return core.Yes }})
	l.out = l.AddOutPort("out")
	l.OnCycleStart(func() {
		if l.Now()%2 == 0 {
			l.out.Idle()
		}
	})
	l.OnReact(func() {
		if l.out.DataStatus(0) == core.Unknown && l.in.DataStatus(0) != core.Unknown {
			l.out.Idle()
		}
	})
	l.OnCycleEnd(func() {
		if v, ok := l.in.TransferredData(0); ok {
			l.got = append(l.got, v.(int))
		}
	})
	return l
}

// TestArbiterCycleBreakGrantsNothing: in a cyclic residue, a cycle break
// defaults the arbiter's out lane 0 to No before its requests settle.
// The arbiter granted nothing this cycle, so it must answer no request
// with Ack — even when the receiver acks the empty lane, as the
// loopback's control function does. A grant left over from an earlier
// cycle would ack the producer's offer into an empty lane and lose it.
func TestArbiterCycleBreakGrantsNothing(t *testing.T) {
	for _, kind := range []core.SchedulerKind{core.SchedulerSequential, core.SchedulerSparse} {
		b := core.NewBuilder(core.WithScheduler(kind), core.WithMetrics())
		arb, err := pcl.NewArbiter("arb", nil)
		if err != nil {
			t.Fatal(err)
		}
		prod, loop := simtest.NewProducer("prod", simtest.IntSeq(20)), newLoopback()
		b.Add(arb)
		b.Add(prod)
		b.Add(loop)
		// arb.out -> loop.in first: the lowest conn id, where a data-round
		// cycle break lands.
		b.Connect(arb, "out", loop, "in")
		b.Connect(prod, "out", arb, "in")
		b.Connect(loop, "out", arb, "in")
		sim := simtest.Build(t, b)
		simtest.Run(t, sim, 40)
		if breaks := sim.Metrics().CycleBreaks(core.SigData); breaks == 0 {
			t.Fatalf("%s: no data cycle break; the test would not reach the case", kind)
		}
		simtest.EqualInts(t, loop.got, seq(prod.Sent()), fmt.Sprintf("%s: loopback received", kind))
		if prod.Sent() == 0 {
			t.Fatalf("%s: nothing was granted", kind)
		}
	}
}
