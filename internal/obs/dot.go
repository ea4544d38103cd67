package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	core "liberty/internal/core"
)

// errWriter latches the first write error so straight-line rendering code
// can skip per-call checks.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// WriteDot renders the netlist as a Graphviz digraph — the structural
// view behind the paper's "interactive system visualizer": every module
// instance is a node, every 3-signal connection an edge labeled with its
// port endpoints. Composite children are clustered by hierarchical name
// prefix. It returns the first error the writer reported.
func WriteDot(w io.Writer, s *core.Sim) error {
	ew := &errWriter{w: w}
	fmt.Fprintln(ew, "digraph liberty {")
	fmt.Fprintln(ew, "  rankdir=LR;")
	fmt.Fprintln(ew, "  node [shape=box, fontname=\"monospace\", fontsize=10];")
	fmt.Fprintln(ew, "  edge [fontname=\"monospace\", fontsize=8];")

	// Group instances by their first hierarchy segment.
	groups := map[string][]core.Instance{}
	var order []string
	for _, inst := range s.Instances() {
		// Composites are rendered as clusters, not nodes. A library
		// template embeds core.Composite, so it is recognised by the
		// method the embedding provides, not by its type.
		if _, isComposite := inst.(interface{ Children() []core.Instance }); isComposite {
			continue
		}
		seg := ""
		if i := strings.IndexByte(inst.Name(), '/'); i >= 0 {
			seg = inst.Name()[:i]
		}
		if _, ok := groups[seg]; !ok {
			order = append(order, seg)
		}
		groups[seg] = append(groups[seg], inst)
	}
	sort.Strings(order)
	for gi, seg := range order {
		indent := "  "
		if seg != "" {
			fmt.Fprintf(ew, "  subgraph cluster_%d {\n    label=%q;\n    style=rounded;\n", gi, seg)
			indent = "    "
		}
		for _, inst := range groups[seg] {
			fmt.Fprintf(ew, "%s%q;\n", indent, inst.Name())
		}
		if seg != "" {
			fmt.Fprintln(ew, "  }")
		}
	}
	for _, c := range s.Conns() {
		src, si := c.Src()
		dst, di := c.Dst()
		fmt.Fprintf(ew, "  %q -> %q [label=\"%s[%d]→%s[%d]\"];\n",
			src.Owner().Name(), dst.Owner().Name(), src.Name(), si, dst.Name(), di)
	}
	// Unconnected optional ports render as dangling stub edges to small
	// point nodes, dashed and grayed so they cannot be mistaken for real
	// connections. The set is UnconnectedPorts, the ports the LSE001
	// diagnostic reports, so the report and the drawing agree.
	for i, p := range UnconnectedPorts(s) {
		stub := fmt.Sprintf("__dangling%d", i)
		fmt.Fprintf(ew, "  %q [shape=point, width=0.05, color=gray60];\n", stub)
		if p.Dir() == core.Out {
			fmt.Fprintf(ew, "  %q -> %q [label=%q, style=dashed, color=gray60, fontcolor=gray60];\n",
				p.Owner().Name(), stub, p.Name())
		} else {
			fmt.Fprintf(ew, "  %q -> %q [label=%q, style=dashed, color=gray60, fontcolor=gray60];\n",
				stub, p.Owner().Name(), p.Name())
		}
	}
	fmt.Fprintln(ew, "}")
	return ew.err
}

// UnconnectedPorts returns the optional ports left without connections,
// in instance then port-declaration order: the ports WriteDot draws as
// dangling stubs and the LSE001 diagnostic reports. A required port left
// unconnected fails the build, so every port listed is optional. A
// composite's exports alias its children's ports, so each port is listed
// once, on the child that declared it.
func UnconnectedPorts(s *core.Sim) []*core.Port {
	var out []*core.Port
	for _, inst := range s.Instances() {
		for _, p := range inst.(interface{ Ports() []*core.Port }).Ports() {
			if p.Owner() == inst && p.Width() == 0 {
				out = append(out, p)
			}
		}
	}
	return out
}
