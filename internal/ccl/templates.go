package ccl

import (
	"fmt"

	core "liberty/internal/core"
	"liberty/internal/pcl"
)

// NetworkInstance wraps a built Network as a composite instance so whole
// fabrics can be instantiated from LSS: ports "in0".."in<N-1>" and
// "out0".."out<N-1>" are the per-node injection/ejection points.
type NetworkInstance struct {
	core.Composite
	Net *Network
}

func wrapNetwork(b *core.Builder, name string, nw *Network) (*NetworkInstance, error) {
	ni := &NetworkInstance{Net: nw}
	ni.Init(name, ni)
	for _, r := range nw.Routers {
		ni.AddChild(r)
	}
	for _, l := range nw.Links {
		ni.AddChild(l)
	}
	for i := 0; i < nw.Nodes; i++ {
		in, err := core.PortOf(nw.Inject[i].Inst, nw.Inject[i].Port)
		if err != nil {
			return nil, err
		}
		out, err := core.PortOf(nw.Eject[i].Inst, nw.Eject[i].Port)
		if err != nil {
			return nil, err
		}
		ni.Export(fmt.Sprintf("in%d", i), in)
		ni.Export(fmt.Sprintf("out%d", i), out)
	}
	return ni, nil
}

func init() {
	core.Register(&core.Template{
		Name: "ccl.mesh",
		Doc:  "W×H 2D mesh (torus=true for wraparound) with XY routing; ports in<i>/out<i>",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			nw, err := BuildMesh(b, core.Sub(name, "net"), MeshCfg{
				W:            p.Int("w", 2),
				H:            p.Int("h", 2),
				BufDepth:     p.Int("bufdepth", 0),
				LinkLatency:  p.Int("linklat", 0),
				LinkCapacity: p.Int("linkcap", 0),
				Torus:        p.Bool("torus", false),
			})
			if err != nil {
				return nil, err
			}
			return wrapNetwork(b, name, nw)
		},
	})
	core.Register(&core.Template{
		Name: "ccl.bus",
		Doc:  "N-node shared bus built from PCL primitives; ports in<i>/out<i>",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			nw, err := BuildBus(b, core.Sub(name, "net"), BusCfg{
				Nodes:   p.Int("nodes", 2),
				Latency: p.Int("latency", 0),
			})
			if err != nil {
				return nil, err
			}
			return wrapNetwork(b, name, nw)
		},
	})
	core.Register(&core.Template{
		Name: "ccl.xbar",
		Doc:  "N-port single-stage crossbar; ports in<i>/out<i>",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			nw, err := BuildCrossbar(b, core.Sub(name, "net"), p.Int("nodes", 2), p.Int("bufdepth", 4))
			if err != nil {
				return nil, err
			}
			return wrapNetwork(b, name, nw)
		},
	})
	core.Register(&core.Template{
		Name: "ccl.pktsource",
		Doc:  "statistical packet generator: node/nodes/rate/size/pattern(uniform|transpose|complement|hotspot|neighbor)",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			node := p.Int("node", 0)
			nodes := p.Int("nodes", 2)
			pattern, err := patternByName(p.Str("pattern", "uniform"), nodes, patternParams{
				hotspot: p.Int("hotspot", 0), hotprob: p.Float("hotprob", 0.5), dst: p.Int("dst", 0),
			})
			if err != nil {
				return nil, &core.ParamError{Param: "pattern", Detail: err.Error()}
			}
			gen := PacketGen(node, nodes, pattern, FixedSize(p.Int("size", 4)))
			return newSourceWithGen(b, name, p, gen)
		},
	})
}

// newSourceWithGen instantiates a pcl.source carrying the generator.
func newSourceWithGen(b *core.Builder, name string, p core.Params, gen pcl.GenFn) (core.Instance, error) {
	return pcl.NewSource(name, core.Params{
		"rate":  p.Float("rate", 1.0),
		"count": p.Int("count", 0),
		"gen":   gen,
	})
}
