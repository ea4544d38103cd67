// Package systems assembles the four target systems of the paper's
// Figure 2 from the component libraries, exactly as §3 sketches them:
// a chip multiprocessor (2a), sensor-network nodes on a shared wireless
// medium (2b), a petaflops "grid-in-a-box" (2c), and the hierarchical
// system-of-systems (2d). The same assemblies back the runnable examples
// and the benchmark harness.
package systems

import (
	"fmt"
	randv1 "math/rand"
	"math/rand/v2"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/mpl"
	"liberty/internal/pcl"
	"liberty/internal/upl"
)

// CMPCfg sizes a Figure 2(a) chip multiprocessor.
type CMPCfg struct {
	W, H      int // mesh dimensions (default 4×4)
	RefsPer   int // memory references per core (default 200)
	Think     int // idle cycles between references (default 2)
	SharedPct int // percent of references to the shared region (default 30)
	Seed      int64
	Torus     bool // board-to-board wraparound (Figure 2(c))
}

func (c *CMPCfg) fill() {
	if c.W == 0 {
		c.W = 4
	}
	if c.H == 0 {
		c.H = 4
	}
	if c.RefsPer == 0 {
		c.RefsPer = 200
	}
	if c.Think == 0 {
		c.Think = 2
	}
	if c.SharedPct == 0 {
		c.SharedPct = 30
	}
}

// CMP is the assembled chip multiprocessor: general-purpose cores (UPL
// stand-ins) behind network interfaces, a CCL mesh fabric, glued by MPL
// directory coherence.
type CMP struct {
	Dir   *mpl.DirSystem
	Cores []*mpl.TraceCore
}

// Done reports whether every core finished its reference stream.
func (c *CMP) Done() bool {
	for _, core := range c.Cores {
		if !core.Done() {
			return false
		}
	}
	return true
}

// Completed returns the total completed references.
func (c *CMP) Completed() int {
	n := 0
	for _, core := range c.Cores {
		n += core.Completed()
	}
	return n
}

// MeanLatency returns the average memory latency across cores.
func (c *CMP) MeanLatency() float64 {
	var sum float64
	for _, core := range c.Cores {
		sum += core.MeanLatency()
	}
	return sum / float64(len(c.Cores))
}

// BuildCMP assembles Figure 2(a) (or 2(c) with Torus set).
func BuildCMP(b *core.Builder, name string, cfg CMPCfg) (*CMP, error) {
	cfg.fill()
	sys, err := mpl.BuildDirectorySystem(b, name, ccl.MeshCfg{
		W: cfg.W, H: cfg.H, Torus: cfg.Torus,
	}, upl.CacheCfg{})
	if err != nil {
		return nil, err
	}
	cmp := &CMP{Dir: sys}
	// The reference lists are drawn at assembly time from their own
	// seeded generator, not from an instance stream.
	rng := randv1.New(randv1.NewSource(cfg.Seed))
	nodes := cfg.W * cfg.H
	for i := 0; i < nodes; i++ {
		refs := synthRefs(rng, i, cfg.RefsPer, cfg.SharedPct)
		core_ := mpl.NewTraceCore(core.Sub(name, fmt.Sprintf("gp%d", i)), refs, cfg.Think)
		b.Add(core_)
		if err := b.Connect(core_, "req", sys.L1s[i], "cpu"); err != nil {
			return nil, err
		}
		if err := b.Connect(sys.L1s[i], "resp", core_, "resp"); err != nil {
			return nil, err
		}
		cmp.Cores = append(cmp.Cores, core_)
	}
	return cmp, nil
}

// synthRefs generates a private/shared reference mix for one core.
func synthRefs(rng *randv1.Rand, node, n, sharedPct int) []mpl.MemRef {
	refs := make([]mpl.MemRef, n)
	privBase := uint32(0x10000 + node*0x1000)
	for k := range refs {
		var addr uint32
		if rng.Intn(100) < sharedPct {
			addr = uint32(rng.Intn(16)) * 32 // 16 shared lines
		} else {
			addr = privBase + uint32(rng.Intn(64))*32
		}
		refs[k] = mpl.MemRef{
			Write: rng.Intn(3) == 0,
			Addr:  addr,
			Data:  uint32(node)<<16 | uint32(k),
		}
	}
	return refs
}

// Reading is one sensor sample carried as a packet payload.
type Reading struct {
	Node  int
	Seq   int
	Value int
}

// SensorNode is the Figure 2(b) node: an ADC sampling source, a DSP
// filter stage that suppresses sub-threshold samples, a GP buffering
// queue, all feeding the node's radio (the exported "radio" port).
type SensorNode struct {
	core.Composite

	ADC *pcl.Source
	DSP *pcl.Filter
	GP  *pcl.Queue
}

// NewSensorNode builds one node. Samples are pseudo-random in [0,100);
// only values >= threshold leave the DSP.
func NewSensorNode(b *core.Builder, name string, node, baseStation, samples, threshold int) (*SensorNode, error) {
	sn := &SensorNode{}
	sn.Init(name, sn)
	gen := pcl.GenFn(func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
		return &ccl.Packet{
			ID:       uint64(node)<<32 | seq,
			Src:      node,
			Dst:      baseStation,
			Size:     1,
			Injected: cycle,
			Payload:  Reading{Node: node, Seq: int(seq), Value: rng.IntN(100)},
		}, true
	})
	adc, err := pcl.NewSource(core.Sub(name, "adc"), core.Params{
		"rate": 0.2, "count": samples, "gen": gen,
	})
	if err != nil {
		return nil, err
	}
	dsp, err := pcl.NewFilter(core.Sub(name, "dsp"), core.Params{
		"pred": pcl.PredFn(func(v any) bool {
			return v.(*ccl.Packet).Payload.(Reading).Value >= threshold
		}),
	})
	if err != nil {
		return nil, err
	}
	gp, err := pcl.NewQueue(core.Sub(name, "gp"), core.Params{"capacity": 8})
	if err != nil {
		return nil, err
	}
	sn.ADC, sn.DSP, sn.GP = adc, dsp, gp
	for _, inst := range []core.Instance{adc, dsp, gp} {
		b.Add(inst)
		sn.AddChild(inst)
	}
	if err := b.Connect(adc, "out", dsp, "in"); err != nil {
		return nil, err
	}
	if err := b.Connect(dsp, "out", gp, "in"); err != nil {
		return nil, err
	}
	sn.Export("radio", gp.Out)
	return sn, nil
}

// SensorNet is the Figure 2(b) system: nodes contending on a shared
// wireless medium for a base-station sink.
type SensorNet struct {
	Nodes []*SensorNode
	Air   *ccl.Wireless
	Base  *pcl.Sink
}

// BuildSensorNet assembles n sensor nodes plus a base station (radio
// index n) on one collision-prone channel.
func BuildSensorNet(b *core.Builder, name string, n, samples, threshold int) (*SensorNet, error) {
	air, err := ccl.NewWireless(core.Sub(name, "air"), core.Params{"loss": 0.02, "mac": "csma"})
	if err != nil {
		return nil, err
	}
	b.Add(air)
	net := &SensorNet{Air: air}
	base := n
	for i := 0; i < n; i++ {
		sn, err := NewSensorNode(b, core.Sub(name, fmt.Sprintf("node%d", i)), i, base, samples, threshold)
		if err != nil {
			return nil, err
		}
		b.Add(sn)
		net.Nodes = append(net.Nodes, sn)
		if err := b.Connect(sn, "radio", air, "in"); err != nil {
			return nil, err
		}
	}
	// Radios 0..n-1 have no receive path (sensors only transmit); the
	// base station occupies radio n.
	for i := 0; i < n; i++ {
		drop, err := pcl.NewSink(core.Sub(name, fmt.Sprintf("rx%d", i)), nil)
		if err != nil {
			return nil, err
		}
		b.Add(drop)
		if err := b.Connect(air, "out", drop, "in"); err != nil {
			return nil, err
		}
	}
	sink, err := pcl.NewSink(core.Sub(name, "base"), core.Params{"keep": true})
	if err != nil {
		return nil, err
	}
	b.Add(sink)
	if err := b.Connect(air, "out", sink, "in"); err != nil {
		return nil, err
	}
	// The wireless in/out widths are independent: the base station only
	// receives (out connection n); it needs no transmit connection.
	net.Base = sink
	return net, nil
}

// Exhausted reports whether all nodes have drained their samples.
func (s *SensorNet) Exhausted() bool {
	for _, n := range s.Nodes {
		if !n.ADC.Exhausted() || n.GP.Len() > 0 {
			return false
		}
	}
	return true
}
