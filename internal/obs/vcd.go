package obs

import (
	"fmt"
	"io"

	core "liberty/internal/core"
)

// VCDTracer emits a Value Change Dump of every connection's three
// handshake signals (2-bit vectors: 00=unknown, 01=no, 10=yes), viewable
// in any waveform viewer — the offline counterpart of the paper's
// interactive visualizer. Attach it with the core.WithTracer build option
// (the builder invokes Attach with the finished netlist). Variables are
// keyed by connection id, which every session of a program shares, so a
// tracer given to Compile follows whichever session is stepped.
type VCDTracer struct {
	w      *errWriter
	ids    [][3]string // indexed by Conn.ID()
	inited bool
}

// NewVCDTracer writes VCD to w.
func NewVCDTracer(w io.Writer) *VCDTracer {
	return &VCDTracer{w: &errWriter{w: w}}
}

// Err returns the first error the writer reported; the tracer writes
// nothing after it.
func (t *VCDTracer) Err() error { return t.w.err }

// vcdID produces a compact printable identifier for signal n.
func vcdID(n int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz"
	s := ""
	for {
		s += string(alphabet[n%len(alphabet)])
		n /= len(alphabet)
		if n == 0 {
			return s
		}
	}
}

func (t *VCDTracer) header(s *core.Sim) {
	fmt.Fprintln(t.w, "$timescale 1ns $end")
	fmt.Fprintln(t.w, "$scope module liberty $end")
	t.ids = make([][3]string, len(s.Conns()))
	n := 0
	for _, c := range s.Conns() { // id order: ids are assigned at Connect time
		for k, sig := range [...]string{"data", "enable", "ack"} {
			id := vcdID(n)
			n++
			t.ids[c.ID()][k] = id
			fmt.Fprintf(t.w, "$var wire 2 %s c%d_%s $end\n", id, c.ID(), sig)
		}
		fmt.Fprintf(t.w, "$comment c%d = %s $end\n", c.ID(), c.String())
	}
	fmt.Fprintln(t.w, "$upscope $end")
	fmt.Fprintln(t.w, "$enddefinitions $end")
}

func statusBits(st core.Status) string {
	switch st {
	case core.Yes:
		return "b10"
	case core.No:
		return "b01"
	}
	return "b00"
}

// OnCycleBegin implements core.Tracer.
func (t *VCDTracer) OnCycleBegin(n uint64) {
	fmt.Fprintf(t.w, "#%d\n", n)
	// All signals return to unknown at the cycle boundary.
	if t.inited {
		for _, ids := range t.ids {
			for _, id := range ids {
				fmt.Fprintf(t.w, "%s %s\n", statusBits(core.Unknown), id)
			}
		}
	}
}

// OnResolve implements core.Tracer.
func (t *VCDTracer) OnResolve(c *core.Conn, k core.SigKind, st core.Status) {
	if c.ID() >= len(t.ids) {
		return
	}
	fmt.Fprintf(t.w, "%s %s\n", statusBits(st), t.ids[c.ID()][k])
}

// OnCycleEnd implements core.Tracer.
func (t *VCDTracer) OnCycleEnd(n uint64) {}

// Attach must be called once the simulator exists (it needs the netlist
// to emit variable definitions).
func (t *VCDTracer) Attach(s *core.Sim) {
	if !t.inited {
		t.header(s)
		t.inited = true
	}
}
