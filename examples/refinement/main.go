// Iterative refinement and mixed abstraction (§2.2).
//
// Part 1 (claim C3): a processor model is built up in stages — fetch
// only, then fetch+decode, then the full five-stage pipeline. Every stage
// compiles into a *working* simulator; unspecified structure is covered
// by default control semantics. The cycle count grows as modeled detail
// grows.
//
// Part 2 (claim C2): the same network model is driven first by a
// statistical packet generator, then by a detailed processor wrapped in a
// network interface — swapping one instance, touching nothing else. The
// NI module is defined right here through the public API, the way a user
// extends the environment.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"liberty/internal/ccl"
	"liberty/internal/isa"
	"liberty/internal/pcl"
	"liberty/internal/upl"
	"liberty/lse"
)

func main() {
	part1()
	part2()
}

// --- Part 1: iterative refinement ---

func part1() {
	fmt.Println("== C3: iterative refinement — every stage is a working simulator ==")
	prog := isa.MustAssemble(isa.ProgSum)

	stages := []struct {
		name  string
		build func(b *lse.Builder) (done func() bool, err error)
	}{
		{"fetch only", func(b *lse.Builder) (func() bool, error) {
			emu := isa.NewCPU()
			prog.LoadInto(emu.Mem)
			emu.Reset(prog.Entry)
			f, err := upl.NewFetchStage("cpu/fetch", emu, upl.FetchCfg{})
			if err != nil {
				return nil, err
			}
			snk, err := pcl.NewSink("drain", nil)
			if err != nil {
				return nil, err
			}
			b.Add(f)
			b.Add(snk)
			b.Connect(f, "out", snk, "in")
			return f.Done, nil
		}},
		{"fetch+decode", func(b *lse.Builder) (func() bool, error) {
			emu := isa.NewCPU()
			prog.LoadInto(emu.Mem)
			emu.Reset(prog.Entry)
			f, err := upl.NewFetchStage("cpu/fetch", emu, upl.FetchCfg{})
			if err != nil {
				return nil, err
			}
			d := upl.NewDecodeStage("cpu/decode", upl.DefaultLatencies())
			snk, err := pcl.NewSink("drain", nil)
			if err != nil {
				return nil, err
			}
			b.Add(f)
			b.Add(d)
			b.Add(snk)
			b.Connect(f, "out", d, "in")
			b.Connect(d, "out", snk, "in")
			return f.Done, nil
		}},
		{"full 5-stage", func(b *lse.Builder) (func() bool, error) {
			cpu, err := upl.NewInOrderCPU(b, "cpu", prog, upl.CPUCfg{})
			if err != nil {
				return nil, err
			}
			return cpu.Done, nil
		}},
	}
	for _, st := range stages {
		b := lse.NewBuilder()
		done, err := st.build(b)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := b.Build()
		if err != nil {
			log.Fatal(err)
		}
		ok, err := sim.RunUntil(func(*lse.Sim) bool { return done() }, 1_000_000)
		if err != nil || !ok {
			log.Fatalf("stage %q: ok=%v err=%v", st.name, ok, err)
		}
		fmt.Printf("  %-14s -> runs to completion in %6d cycles\n", st.name, sim.Now())
	}
	fmt.Println()
}

// --- Part 2: mixed abstraction ---

// cpuNI wraps a detailed processor as a traffic source: every committed
// instruction batch becomes a packet — the "network interface controller
// for a microprocessor" that replaces the statistical generator.
type cpuNI struct {
	lse.Base
	Out *lse.Port

	cpu     *upl.InOrderCPU
	last    uint64
	backlog int
	seq     uint64
}

func newCPUNI(name string, cpu *upl.InOrderCPU) *cpuNI {
	n := &cpuNI{cpu: cpu}
	n.Init(name, n)
	n.Out = n.AddOutPort("out", lse.PortOpts{MinWidth: 1, MaxWidth: 1})
	n.OnCycleStart(n.cycleStart)
	n.OnCycleEnd(n.cycleEnd)
	return n
}

func (n *cpuNI) cycleStart() {
	retired := n.cpu.Retired()
	if retired/8 > n.last {
		n.backlog += int(retired/8 - n.last)
		n.last = retired / 8
	}
	if n.backlog > 0 {
		n.Out.Send(0, &ccl.Packet{
			ID: n.seq, Src: 0, Dst: 1, Size: 2,
			Injected: n.Now(), Payload: "commit-batch",
		})
		n.Out.Enable(0)
	} else {
		n.Out.SendNothing(0)
		n.Out.Disable(0)
	}
}

func (n *cpuNI) cycleEnd() {
	if n.backlog > 0 && n.Out.Transferred(0) {
		n.backlog--
		n.seq++
	}
}

func part2() {
	fmt.Println("== C2: mixed abstraction — swap the generator, keep the network ==")

	// The shared fabric: a 2-port crossbar, node 0 -> node 1.
	type result struct {
		delivered int64
		meanLat   float64
	}
	runWith := func(attach func(b *lse.Builder, nw *ccl.Network) (func() bool, error)) result {
		b := lse.NewBuilder(lse.WithSeed(123))
		nw, err := ccl.BuildCrossbar(b, "net", 2, 4)
		if err != nil {
			log.Fatal(err)
		}
		snk, err := pcl.NewSink("snk", nil)
		if err != nil {
			log.Fatal(err)
		}
		b.Add(snk)
		if err := nw.ConnectSink(b, 1, snk, "in"); err != nil {
			log.Fatal(err)
		}
		drain, err := pcl.NewSink("drain0", nil)
		if err != nil {
			log.Fatal(err)
		}
		b.Add(drain)
		nw.ConnectSink(b, 0, drain, "in")
		done, err := attach(b, nw)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := b.Build()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sim.RunUntil(func(*lse.Sim) bool { return done() }, 200_000); err != nil {
			log.Fatal(err)
		}
		return result{delivered: snk.Received(), meanLat: snk.MeanLatency()}
	}

	// (a) statistical packet generator.
	statistical := runWith(func(b *lse.Builder, nw *ccl.Network) (func() bool, error) {
		src, err := pcl.NewSource("gen", lse.Params{
			"rate":  0.05,
			"count": 40,
			"gen": pcl.GenFn(func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
				return &ccl.Packet{ID: seq, Src: 0, Dst: 1, Size: 2, Injected: cycle}, true
			}),
		})
		if err != nil {
			return nil, err
		}
		b.Add(src)
		if err := nw.ConnectSource(b, 0, src, "out"); err != nil {
			return nil, err
		}
		return src.Exhausted, nil
	})
	fmt.Printf("  statistical generator: %3d packets delivered, mean latency %.1f\n",
		statistical.delivered, statistical.meanLat)

	// (b) detailed processor behind a network interface — only the source
	// instance changes.
	detailed := runWith(func(b *lse.Builder, nw *ccl.Network) (func() bool, error) {
		cpu, err := upl.NewInOrderCPU(b, "cpu", isa.MustAssemble(isa.ProgSort), upl.CPUCfg{})
		if err != nil {
			return nil, err
		}
		ni := newCPUNI("ni", cpu)
		b.Add(ni)
		if err := nw.ConnectSource(b, 0, ni, "out"); err != nil {
			return nil, err
		}
		return func() bool { return cpu.Done() && ni.backlog == 0 }, nil
	})
	fmt.Printf("  detailed CPU + NI:     %3d packets delivered, mean latency %.1f\n",
		detailed.delivered, detailed.meanLat)
	fmt.Println("  same network model served both abstraction levels unchanged")
}
