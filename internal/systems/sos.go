package systems

import (
	"fmt"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/isa"
	"liberty/internal/pcl"
	"liberty/internal/upl"
)

// Summary is a gateway's aggregate of a batch of sensor readings.
type Summary struct {
	Cluster int
	Count   int
	Sum     int
}

// Gateway is the Figure 2(d) coarse-grain node: it receives readings from
// its sensor cluster over the radio, aggregates batches, and injects
// summaries into the backbone fabric toward the base camp.
//
// Ports: "radio" (In, *ccl.Packet carrying Reading), "net" (Out,
// *ccl.Packet carrying Summary).
type Gateway struct {
	core.Base
	Radio *core.Port
	Net   *core.Port

	cluster int
	meshSrc int
	meshDst int
	batch   int

	count, sum int
	pending    []*ccl.Packet
	seq        uint64

	cReadings  *core.Counter
	cSummaries *core.Counter
}

// NewGateway constructs a gateway aggregating batch readings per summary.
func NewGateway(name string, cluster, meshSrc, meshDst, batch int) *Gateway {
	if batch < 1 {
		batch = 8
	}
	g := &Gateway{cluster: cluster, meshSrc: meshSrc, meshDst: meshDst, batch: batch}
	g.Init(name, g)
	g.cReadings = g.Counter("readings")
	g.cSummaries = g.Counter("summaries")
	g.Radio = g.AddInPort("radio", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	g.Net = g.AddOutPort("net", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	g.OnCycleStart(g.cycleStart)
	g.OnCycleEnd(g.cycleEnd)
	g.MarkSequential() // net is offered from the pending summaries at cycle start; radio takes the engine's default ack
	return g
}

// Flush emits any partial batch as a final summary (call between runs).
func (g *Gateway) Flush() {
	if g.count > 0 {
		g.emit()
	}
}

func (g *Gateway) emit() {
	g.pending = append(g.pending, &ccl.Packet{
		ID:       uint64(g.cluster)<<32 | g.seq,
		Src:      g.meshSrc,
		Dst:      g.meshDst,
		Size:     2,
		Injected: g.Now(),
		Payload:  Summary{Cluster: g.cluster, Count: g.count, Sum: g.sum},
	})
	g.seq++
	g.count, g.sum = 0, 0
}

func (g *Gateway) cycleStart() {
	if len(g.pending) > 0 {
		g.Net.Send(0, g.pending[0])
		g.Net.Enable(0)
	} else {
		g.Net.SendNothing(0)
		g.Net.Disable(0)
	}
	// Radio acceptance uses the engine default (accept firm data).
}

func (g *Gateway) cycleEnd() {
	if len(g.pending) > 0 && g.Net.Transferred(0) {
		g.pending = g.pending[1:]
		g.cSummaries.Inc()
	}
	if v, ok := g.Radio.TransferredData(0); ok {
		r := v.(*ccl.Packet).Payload.(Reading)
		g.count++
		g.sum += r.Value
		g.cReadings.Inc()
		if g.count >= g.batch {
			g.emit()
		}
	}
}

// SoSCfg sizes the Figure 2(d) system of systems.
type SoSCfg struct {
	Clusters     int    // sensor clusters (default 2)
	SensorsPer   int    // sensors per cluster (default 3)
	SamplesPer   int    // samples per sensor (default 20)
	Threshold    int    // DSP threshold (default 20)
	Batch        int    // readings per summary (default 4)
	MeshW, MeshH int    // backbone fabric (default 2×2)
	GridProgram  string // lr32 source for the base-camp analysis core
}

// SoS is the assembled system of systems: sensor clusters on wireless
// channels, gateways with chip-multiprocessor fabric, and a base camp
// with an out-of-order "petaflops grid" core crunching beside the
// collector.
type SoS struct {
	Clusters  []*SensorNet
	Gateways  []*Gateway
	Mesh      *ccl.Network
	Collector *pcl.Sink
	Grid      *upl.OOOCPU
}

// BuildSoS assembles Figure 2(d).
func BuildSoS(b *core.Builder, name string, cfg SoSCfg) (*SoS, error) {
	if cfg.Clusters == 0 {
		cfg.Clusters = 2
	}
	if cfg.SensorsPer == 0 {
		cfg.SensorsPer = 3
	}
	if cfg.SamplesPer == 0 {
		cfg.SamplesPer = 20
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 20
	}
	if cfg.Batch == 0 {
		cfg.Batch = 4
	}
	if cfg.MeshW == 0 {
		cfg.MeshW = 2
	}
	if cfg.MeshH == 0 {
		cfg.MeshH = 2
	}
	if cfg.GridProgram == "" {
		cfg.GridProgram = isa.ProgSort
	}
	nodes := cfg.MeshW * cfg.MeshH
	if cfg.Clusters > nodes-1 {
		return nil, fmt.Errorf("systems: %d clusters need a larger backbone than %d nodes",
			cfg.Clusters, nodes)
	}
	sos := &SoS{}

	nw, err := ccl.BuildMesh(b, core.Sub(name, "backbone"), ccl.MeshCfg{W: cfg.MeshW, H: cfg.MeshH})
	if err != nil {
		return nil, err
	}
	sos.Mesh = nw

	// Base camp at node 0: collector plus the analysis core.
	collector, err := pcl.NewSink(core.Sub(name, "collector"), core.Params{"keep": true})
	if err != nil {
		return nil, err
	}
	b.Add(collector)
	if err := nw.ConnectSink(b, 0, collector, "in"); err != nil {
		return nil, err
	}
	sos.Collector = collector

	prog, err := isa.Assemble(cfg.GridProgram)
	if err != nil {
		return nil, err
	}
	grid, err := upl.NewOOOCPU(b, core.Sub(name, "grid"), prog, upl.CPUCfg{})
	if err != nil {
		return nil, err
	}
	sos.Grid = grid

	// Clusters at mesh nodes 1..Clusters.
	for c := 0; c < cfg.Clusters; c++ {
		meshNode := c + 1
		cl, err := buildClusterWithGateway(b, core.Sub(name, fmt.Sprintf("cluster%d", c)),
			c, cfg.SensorsPer, cfg.SamplesPer, cfg.Threshold)
		if err != nil {
			return nil, err
		}
		gw := NewGateway(core.Sub(name, fmt.Sprintf("gw%d", c)), c, meshNode, 0, cfg.Batch)
		b.Add(gw)
		// Gateway radio receives on the channel's base-station output.
		if err := b.Connect(cl.Air, "out", gw, "radio"); err != nil {
			return nil, err
		}
		if err := nw.ConnectSource(b, meshNode, gw, "net"); err != nil {
			return nil, err
		}
		// Unused ejection ports at cluster nodes drain to sinks.
		drain, err := pcl.NewSink(core.Sub(name, fmt.Sprintf("drain%d", meshNode)), nil)
		if err != nil {
			return nil, err
		}
		b.Add(drain)
		if err := nw.ConnectSink(b, meshNode, drain, "in"); err != nil {
			return nil, err
		}
		sos.Clusters = append(sos.Clusters, cl)
		sos.Gateways = append(sos.Gateways, gw)
	}
	return sos, nil
}

// buildClusterWithGateway is BuildSensorNet with the base-station sink
// replaced by the gateway's radio (connected by the caller): the §2.2
// mixed-abstraction swap — same wireless fabric, different consumer.
func buildClusterWithGateway(b *core.Builder, name string, cluster, sensors, samples, threshold int) (*SensorNet, error) {
	air, err := ccl.NewWireless(core.Sub(name, "air"), core.Params{"mac": "csma"})
	if err != nil {
		return nil, err
	}
	b.Add(air)
	net := &SensorNet{Air: air}
	base := sensors
	for i := 0; i < sensors; i++ {
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
	for i := 0; i < sensors; i++ {
		drop, err := pcl.NewSink(core.Sub(name, fmt.Sprintf("rx%d", i)), nil)
		if err != nil {
			return nil, err
		}
		b.Add(drop)
		if err := b.Connect(air, "out", drop, "in"); err != nil {
			return nil, err
		}
	}
	// Out connection index `sensors` is the gateway's radio; the caller
	// wires it.
	return net, nil
}

// TotalReadings returns the readings aggregated across gateways.
func (s *SoS) TotalReadings() int64 {
	var n int64
	for _, g := range s.Gateways {
		if g.cReadings != nil {
			n += g.cReadings.Value()
		}
	}
	return n
}

// SummariesDelivered returns the summaries that reached the collector.
func (s *SoS) SummariesDelivered() int64 { return s.Collector.Received() }
