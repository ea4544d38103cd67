package ccl

import (
	"fmt"

	core "liberty/internal/core"
	"liberty/internal/pcl"
)

// Attach identifies a connection point (instance + port name) that
// topology builders expose for wiring traffic sources and sinks.
type Attach struct {
	Inst core.Instance
	Port string
}

// Network is the common handle returned by topology builders: per-node
// injection and ejection attachment points plus the structural inventory
// for power accounting.
type Network struct {
	Name    string
	Nodes   int
	Inject  []Attach // connect a source's out port here
	Eject   []Attach // connect a sink's in port here
	Routers []*Router
	Links   []*Link
}

// ConnectSource wires src's named out port to node n's injection point.
func (nw *Network) ConnectSource(b *core.Builder, node int, src core.Instance, port string) error {
	a := nw.Inject[node]
	return b.Connect(src, port, a.Inst, a.Port)
}

// ConnectSink wires node n's ejection point to dst's named in port.
func (nw *Network) ConnectSink(b *core.Builder, node int, dst core.Instance, port string) error {
	a := nw.Eject[node]
	return b.Connect(a.Inst, a.Port, dst, port)
}

// MeshCfg configures mesh and torus builders.
type MeshCfg struct {
	W, H         int
	BufDepth     int // router input buffer depth (default 4)
	VCs          int // virtual channels per router input (default 1)
	LinkLatency  int // per-hop propagation (default 1)
	LinkCapacity int // packets in flight per link (default 4)
	Torus        bool
	// Adaptive enables minimal-adaptive routing: when both dimension
	// moves are productive, the less congested outgoing link wins (ties
	// fall back to XY order). Congestion is probed from the neighbor
	// links' in-flight counts.
	Adaptive bool
}

// direction codes used during mesh construction.
const (
	dirLocal = iota
	dirN
	dirE
	dirS
	dirW
)

// BuildMesh assembles a W×H 2D mesh (or torus) of composite routers with
// XY dimension-ordered routing. Node IDs are y*W+x. Port 0 of every
// router is the local injection/ejection port.
func BuildMesh(b *core.Builder, name string, cfg MeshCfg) (*Network, error) {
	if cfg.W < 1 || cfg.H < 1 || cfg.W*cfg.H < 1 {
		return nil, &core.ParamError{Param: "W/H", Detail: "mesh dimensions must be >= 1"}
	}
	if cfg.BufDepth == 0 {
		cfg.BufDepth = 4
	}
	if cfg.LinkLatency == 0 {
		cfg.LinkLatency = 1
	}
	if cfg.LinkCapacity == 0 {
		cfg.LinkCapacity = 4
	}
	w, h := cfg.W, cfg.H
	n := w * h
	nw := &Network{Name: name, Nodes: n}

	// Outgoing link per (node, direction), filled as links are created;
	// adaptive route closures capture the slice and read it at run time.
	outLinks := make([][5]*Link, n)

	// Per-router port indices, by direction. Port 0 is the local port, so
	// 0 at any other direction means the router has no port that way.
	portIdx := make([][5]int, n)
	nPorts := make([]int, n)
	for node := 0; node < n; node++ {
		x, y := node%w, node/w
		next := 1
		add := func(dir int, exists bool) {
			if exists {
				portIdx[node][dir] = next
				next++
			}
		}
		add(dirN, y > 0 || (cfg.Torus && h > 1))
		add(dirE, x < w-1 || (cfg.Torus && w > 1))
		add(dirS, y < h-1 || (cfg.Torus && h > 1))
		add(dirW, x > 0 || (cfg.Torus && w > 1))
		nPorts[node] = next
	}

	for node := 0; node < n; node++ {
		node := node
		x, y := node%w, node/w
		pm := portIdx[node]
		xDir := func(dx int) int {
			dir := dirE
			if dx < x {
				dir = dirW
			}
			if cfg.Torus {
				fwd := (dx - x + w) % w
				if fwd <= w-fwd {
					dir = dirE
				} else {
					dir = dirW
				}
			}
			return dir
		}
		yDir := func(dy int) int {
			dir := dirS
			if dy < y {
				dir = dirN
			}
			if cfg.Torus {
				fwd := (dy - y + h) % h
				if fwd <= h-fwd {
					dir = dirS
				} else {
					dir = dirN
				}
			}
			return dir
		}
		route := func(pkt *Packet) int {
			dx, dy := pkt.Dst%w, pkt.Dst/w
			var dir int
			switch {
			case dx != x && dy != y && cfg.Adaptive:
				// Minimal adaptive: both dimension moves are productive;
				// take the less congested link, XY order on ties.
				a, bdir := xDir(dx), yDir(dy)
				la, lb := outLinks[node][a], outLinks[node][bdir]
				dir = a
				if la != nil && lb != nil && lb.Congestion() < la.Congestion() {
					dir = bdir
				}
			case dx != x:
				dir = xDir(dx)
			case dy != y:
				dir = yDir(dy)
			default:
				dir = dirLocal
			}
			return pm[dir]
		}
		r, err := NewRouter(b, core.Sub(name, fmt.Sprintf("r%d_%d", x, y)), RouterCfg{
			Ports:    nPorts[node],
			BufDepth: cfg.BufDepth,
			VCs:      cfg.VCs,
			Route:    route,
		})
		if err != nil {
			return nil, err
		}
		b.Add(r)
		nw.Routers = append(nw.Routers, r)
		nw.Inject = append(nw.Inject, Attach{Inst: r, Port: "in0"})
		nw.Eject = append(nw.Eject, Attach{Inst: r, Port: "out0"})
	}

	// Links: one per directed neighbor edge.
	connect := func(from int, dir int, to int, rdir int) error {
		l, err := NewLink(core.Sub(name, fmt.Sprintf("l%d_%s_%d", from, dirName(dir), to)),
			core.Params{"latency": cfg.LinkLatency, "capacity": cfg.LinkCapacity})
		if err != nil {
			return err
		}
		b.Add(l)
		nw.Links = append(nw.Links, l)
		outLinks[from][dir] = l
		outPort := fmt.Sprintf("out%d", portIdx[from][dir])
		inPort := fmt.Sprintf("in%d", portIdx[to][rdir])
		if err := b.Connect(nw.Routers[from], outPort, l, "in"); err != nil {
			return err
		}
		return b.Connect(l, "out", nw.Routers[to], inPort)
	}
	for node := 0; node < n; node++ {
		x, y := node%w, node/w
		if portIdx[node][dirE] > 0 {
			to := y*w + (x+1)%w
			if err := connect(node, dirE, to, dirW); err != nil {
				return nil, err
			}
		}
		if portIdx[node][dirS] > 0 {
			to := ((y+1)%h)*w + x
			if err := connect(node, dirS, to, dirN); err != nil {
				return nil, err
			}
		}
		if cfg.Torus {
			continue // E/S cover wrap edges via modulo above
		}
	}
	if !cfg.Torus {
		// Non-torus meshes also need the W and N directions fed; E/S
		// links above are directed from -> to only, so add the reverse
		// links explicitly.
		for node := 0; node < n; node++ {
			x, y := node%w, node/w
			if x > 0 {
				if err := connect(node, dirW, y*w+x-1, dirE); err != nil {
					return nil, err
				}
			}
			if y > 0 {
				if err := connect(node, dirN, (y-1)*w+x, dirS); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for node := 0; node < n; node++ {
			x, y := node%w, node/w
			if portIdx[node][dirW] > 0 {
				to := y*w + (x-1+w)%w
				if err := connect(node, dirW, to, dirE); err != nil {
					return nil, err
				}
			}
			if portIdx[node][dirN] > 0 {
				to := ((y-1+h)%h)*w + x
				if err := connect(node, dirN, to, dirS); err != nil {
					return nil, err
				}
			}
		}
	}
	return nw, nil
}

func dirName(d int) string {
	switch d {
	case dirN:
		return "n"
	case dirE:
		return "e"
	case dirS:
		return "s"
	case dirW:
		return "w"
	}
	return "l"
}

// BusCfg configures the shared-bus builder.
type BusCfg struct {
	Nodes   int
	Latency int // bus transfer latency (default 1)
}

// BuildBus assembles an N-node shared bus entirely from PCL primitives:
// per-node requests meet at an arbiter, cross a link, and are broadcast by
// a tee to per-node address filters — the paper's point that CCL builds on
// PCL.
func BuildBus(b *core.Builder, name string, cfg BusCfg) (*Network, error) {
	if cfg.Nodes < 2 {
		return nil, &core.ParamError{Param: "nodes", Detail: "bus needs >= 2 nodes"}
	}
	if cfg.Latency == 0 {
		cfg.Latency = 1
	}
	nw := &Network{Name: name, Nodes: cfg.Nodes}

	arb, err := pcl.NewArbiter(core.Sub(name, "arb"), nil)
	if err != nil {
		return nil, err
	}
	link, err := NewLink(core.Sub(name, "link"), core.Params{"latency": cfg.Latency, "capacity": 1})
	if err != nil {
		return nil, err
	}
	tee, err := pcl.NewTee(core.Sub(name, "bcast"), nil)
	if err != nil {
		return nil, err
	}
	b.Add(arb)
	b.Add(link)
	b.Add(tee)
	nw.Links = append(nw.Links, link)
	if err := b.Connect(arb, "out", link, "in"); err != nil {
		return nil, err
	}
	if err := b.Connect(link, "out", tee, "in"); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		i := i
		pred := pcl.PredFn(func(v any) bool {
			pkt, ok := v.(*Packet)
			return ok && pkt.Dst == i
		})
		f, err := pcl.NewFilter(core.Sub(name, fmt.Sprintf("sel%d", i)), core.Params{"pred": pred})
		if err != nil {
			return nil, err
		}
		b.Add(f)
		if err := b.Connect(tee, "out", f, "in"); err != nil {
			return nil, err
		}
		nw.Inject = append(nw.Inject, Attach{Inst: arb, Port: "in"})
		nw.Eject = append(nw.Eject, Attach{Inst: f, Port: "out"})
	}
	return nw, nil
}

// BuildCrossbar assembles an N-port single-stage crossbar: one composite
// router whose routing function sends each packet straight to its
// destination port.
func BuildCrossbar(b *core.Builder, name string, nodes int, bufDepth int) (*Network, error) {
	if nodes < 2 {
		return nil, &core.ParamError{Param: "nodes", Detail: "crossbar needs >= 2 nodes"}
	}
	r, err := NewRouter(b, core.Sub(name, "xbar"), RouterCfg{
		Ports:    nodes,
		BufDepth: bufDepth,
		Route:    func(pkt *Packet) int { return pkt.Dst },
	})
	if err != nil {
		return nil, err
	}
	b.Add(r)
	nw := &Network{Name: name, Nodes: nodes, Routers: []*Router{r}}
	for i := 0; i < nodes; i++ {
		nw.Inject = append(nw.Inject, Attach{Inst: r, Port: fmt.Sprintf("in%d", i)})
		nw.Eject = append(nw.Eject, Attach{Inst: r, Port: fmt.Sprintf("out%d", i)})
	}
	return nw, nil
}

// BuildRing assembles an N-node bidirectional ring (a 1×N torus).
func BuildRing(b *core.Builder, name string, nodes int, cfg MeshCfg) (*Network, error) {
	cfg.W, cfg.H, cfg.Torus = nodes, 1, true
	return BuildMesh(b, name, cfg)
}
