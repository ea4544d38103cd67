package pcl_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/pcl"
	"liberty/internal/simtest"
)

// netlist assembles pcl instances, each built by its constructor, and
// wires them; a wire is "from.port->to.port".
type netlist struct {
	insts []func() (core.Instance, error)
	wires []string
}

func (n netlist) build(b *core.Builder) error {
	byName := map[string]core.Instance{}
	for _, mk := range n.insts {
		inst, err := mk()
		if err != nil {
			return err
		}
		b.Add(inst)
		byName[inst.Name()] = inst
	}
	for _, w := range n.wires {
		from, to, _ := strings.Cut(w, "->")
		src, srcPort, _ := strings.Cut(from, ".")
		dst, dstPort, _ := strings.Cut(to, ".")
		if err := b.Connect(byName[src], srcPort, byName[dst], dstPort); err != nil {
			return err
		}
	}
	return nil
}

func source(name string, p core.Params) func() (core.Instance, error) {
	return func() (core.Instance, error) { return pcl.NewSource(name, p) }
}
func sink(name string) func() (core.Instance, error) {
	return func() (core.Instance, error) { return pcl.NewSink(name, core.Params{"keep": true}) }
}
func gate(name string, divisor int) func() (core.Instance, error) {
	return func() (core.Instance, error) { return pcl.NewClockGate(name, core.Params{"divisor": divisor}) }
}
func queue(name string, p core.Params) func() (core.Instance, error) {
	return func() (core.Instance, error) { return pcl.NewQueue(name, p) }
}

// TestCheckpointEveryTemplate snapshots one netlist per pcl template with
// data in flight — pending memory requests and replies, full delay
// lanes, back-pressured sources, kept sink values, an arbiter
// mid-rotation, a queue under a select function — restores it, and
// requires the restored run to match the uninterrupted one status for
// status each cycle, in every kept value and in every statistic. A
// declared field that is dropped, or a boxed payload type that is not
// gob-registered, fails it.
func TestCheckpointEveryTemplate(t *testing.T) {
	const k, n = 12, 40
	memReqs := pcl.GenFn(func(_ *rand.Rand, _, seq uint64) (any, bool) {
		op := pcl.MemWrite
		if seq%3 == 2 {
			op = pcl.MemRead
		}
		return pcl.MemReq{Op: op, Addr: uint32(seq%8) * 4, Data: uint32(seq * 10), Tag: int(seq)}, true
	})
	// once exhausts at cycle 5 and would produce again later: only a
	// restored done flag keeps it finished.
	once := pcl.GenFn(func(_ *rand.Rand, cycle, seq uint64) (any, bool) { return int(seq) + 100, cycle != 5 })
	evenFirst := pcl.SelectFn(func(entries []any) []int {
		var even, odd []int
		for i, e := range entries {
			if e.(int)%2 == 0 {
				even = append(even, i)
			} else {
				odd = append(odd, i)
			}
		}
		return append(even, odd...)
	})
	cases := []struct {
		name    string
		net     netlist
		prepare func(*core.Sim) // applied to the uninterrupted session before it runs
	}{
		{name: "memarray", net: netlist{
			insts: []func() (core.Instance, error){
				source("src", core.Params{"gen": memReqs}),
				func() (core.Instance, error) {
					return pcl.NewMemArray("mem", core.Params{"words": 16, "latency": 3, "queue": 2})
				},
				gate("gate", 3), sink("snk"),
			},
			wires: []string{"src.out->mem.req", "mem.resp->gate.in", "gate.out->snk.in"},
		}},
		{name: "delay", net: netlist{
			insts: []func() (core.Instance, error){
				source("a", core.Params{"rate": 0.8}), source("b", core.Params{"rate": 0.6}),
				func() (core.Instance, error) {
					return pcl.NewDelay("dly", core.Params{"latency": 3, "capacity": 2})
				},
				gate("ga", 3), gate("gb", 4), sink("sa"), sink("sb"),
			},
			wires: []string{"a.out->dly.in", "b.out->dly.in", "dly.out->ga.in", "dly.out->gb.in", "ga.out->sa.in", "gb.out->sb.in"},
		}},
		{name: "source", net: netlist{
			insts: []func() (core.Instance, error){
				source("src", core.Params{"rate": 0.9}), queue("q", core.Params{"capacity": 2}), gate("gate", 4), sink("snk"),
				source("once", core.Params{"gen": once}), sink("late"),
			},
			wires: []string{"src.out->q.in", "q.out->gate.in", "gate.out->snk.in", "once.out->late.in"},
		}, prepare: func(s *core.Sim) { s.Instance("src").(*pcl.Source).SetRate(0.35) }},
		{name: "arbiter", net: netlist{
			insts: []func() (core.Instance, error){
				source("a", core.Params{"rate": 0.7}), source("b", core.Params{"rate": 0.5}), source("c", core.Params{}),
				func() (core.Instance, error) { return pcl.NewArbiter("arb", core.Params{}) },
				queue("q", core.Params{"capacity": 3}), gate("gate", 2), sink("snk"),
			},
			wires: []string{"a.out->arb.in", "b.out->arb.in", "c.out->arb.in", "arb.out->q.in", "q.out->gate.in", "gate.out->snk.in"},
		}},
		{name: "queue-select", net: netlist{
			insts: []func() (core.Instance, error){
				source("src", core.Params{"rate": 0.9}), queue("q", core.Params{"capacity": 4, "select": evenFirst}),
				gate("gate", 3), sink("snk"),
			},
			wires: []string{"src.out->q.in", "q.out->gate.in", "gate.out->snk.in"},
		}},
		{name: "tee-route-filter", net: netlist{
			insts: []func() (core.Instance, error){
				source("src", core.Params{"rate": 0.8}),
				func() (core.Instance, error) {
					return pcl.NewFilter("filt", core.Params{"pred": pcl.PredFn(func(v any) bool { return v.(int)%3 != 0 })})
				},
				func() (core.Instance, error) { return pcl.NewTee("tee", core.Params{}) },
				queue("q1", core.Params{"capacity": 2}), queue("q2", core.Params{"capacity": 2}),
				func() (core.Instance, error) {
					return pcl.NewRoute("rt", core.Params{"route": pcl.RouteFn(func(v any) int { return v.(int) % 2 })})
				},
				gate("gate", 2), sink("even"), sink("odd"), sink("all"),
			},
			wires: []string{"src.out->filt.in", "filt.out->tee.in", "tee.out->q1.in", "tee.out->q2.in",
				"q1.out->rt.in", "rt.out->even.in", "rt.out->odd.in", "q2.out->gate.in", "gate.out->all.in"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := core.Compile(tc.net.build, core.WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := prog.NewSim()
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if tc.prepare != nil {
				tc.prepare(ref)
			}
			simtest.Run(t, ref, k)
			var snap bytes.Buffer
			if err := ref.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			restored, err := prog.Restore(&snap)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			want, got := simtest.StepHashes(t, ref, n), simtest.StepHashes(t, restored, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cycle %d after the restore at %d: status hash %x, uninterrupted %x", i+1, k, got[i], want[i])
				}
			}
			if got, want := kept(restored), kept(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("kept values after the restore:\n%v\nuninterrupted:\n%v", got, want)
			}
			var gotStats, wantStats bytes.Buffer
			restored.Stats().Dump(&gotStats)
			ref.Stats().Dump(&wantStats)
			if gotStats.String() != wantStats.String() {
				t.Fatalf("statistics after the restore:\n%s\nuninterrupted:\n%s", &gotStats, &wantStats)
			}
		})
	}
}

// kept renders every sink's retained values, by instance name.
func kept(s *core.Sim) map[string]string {
	out := map[string]string{}
	for _, inst := range s.Instances() {
		if snk, ok := inst.(*pcl.Sink); ok {
			out[snk.Name()] = fmt.Sprint(snk.Values())
		}
	}
	return out
}
