package core

import (
	"fmt"
	"strings"
	"testing"
)

// The fused lane operations (lanes.go) are specified as the per-lane loop
// over the single-lane Port API they replace. This harness holds them to
// that: a case is decoded from bytes into a netlist, per-cycle lane
// states and one operation per cycle; twin sessions run it, one calling
// the fused operation and one the literal loop, and everything
// observable must agree — statuses, data, resolution counts, both wake
// queues, metrics, tracer events, react order, and the contract error an
// illegal call raises. The six single-lane drives are operations too, and
// every operation is also held to the tracer's neutrality: an untraced
// session and a traced one must agree on everything but the tracer's own
// lines. TestLaneOpsEquivalence feeds it pseudo-random cases
// over widths {0, 1, 5, 65}; FuzzLaneOps feeds it the fuzzer's.

// Literal definitions: what each fused operation stands for.

func literalIdle(p *Port, lo, hi int) {
	for j := lo; j < hi; j++ {
		if p.DataStatus(j) == Unknown {
			p.SendNothing(j)
			p.Disable(j)
		}
	}
}

func literalNack(p *Port, lo, hi int) {
	for j := lo; j < hi; j++ {
		if !p.AckStatus(j).Known() {
			p.Nack(j)
		}
	}
}

func literalOffers(p *Port) ([]any, bool) {
	buf := make([]any, p.Width())
	for i := range buf {
		switch p.DataStatus(i) {
		case Unknown:
			return buf, false
		case Yes:
			buf[i] = p.Data(i)
		}
	}
	return buf, true
}

func literalCountOffers(p *Port) (n int, settled bool) {
	for i := 0; i < p.Width(); i++ {
		switch p.DataStatus(i) {
		case Unknown:
			return n, false
		case Yes:
			n++
		}
	}
	return n, true
}

func literalNextOffered(p *Port, from int) int {
	for i := from; i < p.Width(); i++ {
		if p.DataStatus(i) == Yes {
			return i
		}
	}
	return -1
}

func literalNextTransferred(p *Port, from int) int {
	for i := from; i < p.Width(); i++ {
		if p.Transferred(i) {
			return i
		}
	}
	return -1
}

const (
	laneOpIdle = iota
	laneOpIdleLanes
	laneOpNackRest
	laneOpNackLanes
	laneOpOffers
	laneOpCountOffers
	laneOpNextOffered
	laneOpNextTransferred
	// The single-lane drives, on lane lo; fused and literal are the same
	// call.
	laneOpSend
	laneOpSendNothing
	laneOpEnable
	laneOpDisable
	laneOpAck
	laneOpNack
	laneOps
)

// runLaneOp performs one operation on p, fused or literal, and renders
// whatever it returned.
func runLaneOp(p *Port, op, lo, hi int, fused bool) string {
	w := p.Width()
	switch op {
	case laneOpIdle:
		if fused {
			p.Idle()
		} else {
			literalIdle(p, 0, w)
		}
	case laneOpIdleLanes:
		if fused {
			p.IdleLanes(lo, hi)
		} else {
			literalIdle(p, lo, hi)
		}
	case laneOpNackRest:
		if fused {
			p.NackRest()
		} else {
			literalNack(p, 0, w)
		}
	case laneOpNackLanes:
		if fused {
			p.NackLanes(lo, hi)
		} else {
			literalNack(p, lo, hi)
		}
	case laneOpOffers:
		var buf []any
		var settled bool
		if fused {
			buf, settled = p.Offers(nil)
		} else {
			buf, settled = literalOffers(p)
		}
		if !settled {
			// Past the first Unknown lane the buffer is unspecified.
			for i := range buf {
				if p.DataStatus(i) == Unknown {
					buf = buf[:i]
					break
				}
			}
		}
		return fmt.Sprint(buf, settled)
	case laneOpCountOffers:
		if fused {
			return fmt.Sprint(p.CountOffers())
		}
		return fmt.Sprint(literalCountOffers(p))
	case laneOpNextOffered, laneOpNextTransferred:
		next := literalNextOffered
		if op == laneOpNextTransferred {
			next = literalNextTransferred
		}
		if fused {
			next = (*Port).NextOffered
			if op == laneOpNextTransferred {
				next = (*Port).NextTransferred
			}
		}
		var visited []int
		for i := next(p, lo); i >= 0; i = next(p, i+1) {
			visited = append(visited, i)
		}
		return fmt.Sprint(visited)
	case laneOpSend:
		p.Send(lo, 300+lo)
	case laneOpSendNothing:
		p.SendNothing(lo)
	case laneOpEnable:
		p.Enable(lo)
	case laneOpDisable:
		p.Disable(lo)
	case laneOpAck:
		p.Ack(lo)
	case laneOpNack:
		p.Nack(lo)
	}
	return ""
}

// Phases an operation can fire in.
const (
	lanePhaseStart   = iota // the hub's OnCycleStart, after the lane states are set
	lanePhaseReact          // the hub's first react before default control
	lanePhaseResidue        // the hub's first react woken by a default-control resolution
	lanePhaseEnd            // the hub's OnCycleEnd
	lanePhases
)

// laneCycle is one cycle's script: the state every lane is put in before
// the operation, and the operation.
type laneCycle struct {
	outData, outEnable []Status // what the hub drives on out lane j first
	inOffer            []Status // what the peer drives on in lane j: Yes offers, No sends nothing
	inAck              []Status // what the hub answers on in lane j first
	onIn               bool     // the operation targets hub.in, else hub.out
	op, lo, hi, phase  int
}

type laneCase struct {
	width   int
	outside bool // also call cycle 0's operation before the first Step, outside any phase
	cycles  []laneCycle
}

// byteSrc hands out the case's bytes; an exhausted source yields zeros.
type byteSrc struct {
	b []byte
}

func (s *byteSrc) next() int {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return int(v)
}

func decodeLaneCase(width int, src *byteSrc) *laneCase {
	cs := &laneCase{width: width, outside: src.next()%4 == 0}
	statuses := func() []Status {
		out := make([]Status, width)
		for i := range out {
			out[i] = Status(src.next() % 3)
		}
		return out
	}
	for c := 0; c < 3; c++ {
		cy := laneCycle{
			outData: statuses(), outEnable: statuses(), inOffer: statuses(), inAck: statuses(),
			onIn:  src.next()%2 == 1,
			op:    src.next() % laneOps,
			phase: src.next() % lanePhases,
		}
		// Ranges reach one lane past either end, to meet the index guard.
		cy.lo = src.next()%(width+3) - 1
		cy.hi = src.next()%(width+3) - 1
		cs.cycles = append(cs.cycles, cy)
	}
	return cs
}

// laneRig is one twin: a hub whose out port drives, and whose in port is
// driven by, peers that each take two lanes (so one instance observes
// more than one lane of a fused call).
type laneRig struct {
	cs    *laneCase
	fused bool
	full  bool // sweep every cycle in full, as a traced session does
	sim   *Sim
	hub   *laneHub
	log   strings.Builder
	fires [lanePhases]int
}

type laneHub struct {
	Base
	out, in *Port
	rig     *laneRig
	fired   bool
	// defaults is the default-control count at cycle start: a react that
	// sees it grown runs in a drain a default resolution started.
	defaults uint64
}

type lanePeer struct {
	Base
	in, out *Port
	rig     *laneRig
	first   int // hub lane of this peer's lane 0
}

func (r *laneRig) cycle() *laneCycle { return &r.cs.cycles[int(r.sim.cycle)%len(r.cs.cycles)] }

func (h *laneHub) fire(phase int) {
	cy := h.rig.cycle()
	if h.fired || cy.phase != phase {
		return
	}
	h.fired = true
	h.rig.fires[phase]++
	p := h.out
	if cy.onIn {
		p = h.in
	}
	fmt.Fprintf(&h.rig.log, "op %d on %s [%d,%d) phase %d\n", cy.op, p.Name(), cy.lo, cy.hi, phase)
	res := runLaneOp(p, cy.op, cy.lo, cy.hi, h.rig.fused)
	fmt.Fprintf(&h.rig.log, " -> %s\n", res)
	h.rig.capture()
}

// capture logs the session state an operation leaves behind.
func (r *laneRig) capture() {
	s := r.sim
	for _, c := range s.conns {
		fmt.Fprintf(&r.log, " c%d %s%s%s", c.id, c.status(SigData), c.status(SigEnable), c.status(SigAck))
		if v, ok := c.Data(); ok {
			fmt.Fprintf(&r.log, "=%v", v)
		}
	}
	fmt.Fprintf(&r.log, "\n resolved %v spill %d queue", s.resolved, s.spillHits)
	for _, b := range s.queue[s.qhead:] {
		fmt.Fprintf(&r.log, " %s", b.name)
	}
	fmt.Fprintf(&r.log, " acks")
	for _, b := range s.acks {
		fmt.Fprintf(&r.log, " %s", b.name)
	}
	m := s.metrics
	fmt.Fprintf(&r.log, "\n wakes %d reacts %d defaults %d/%d/%d breaks %d/%d/%d iters %d\n",
		m.Wakes(), m.Reacts(),
		m.DefaultFallbacks(SigData), m.DefaultFallbacks(SigEnable), m.DefaultFallbacks(SigAck),
		m.CycleBreaks(SigData), m.CycleBreaks(SigEnable), m.CycleBreaks(SigAck), m.FixedPointIters())
}

func newLaneHub(r *laneRig) *laneHub {
	h := &laneHub{rig: r}
	h.Init("hub", h)
	h.out = h.AddOutPort("out")
	h.in = h.AddInPort("in")
	h.OnCycleStart(func() {
		h.fired = false
		h.defaults = defaultCount(h.sim)
		cy := r.cycle()
		for j := 0; j < h.out.Width(); j++ {
			switch cy.outData[j] {
			case Yes:
				h.out.Send(j, 100+j)
			case No:
				h.out.SendNothing(j)
			}
			switch cy.outEnable[j] {
			case Yes:
				h.out.Enable(j)
			case No:
				h.out.Disable(j)
			}
			switch cy.inAck[j] {
			case Yes:
				h.in.Ack(j)
			case No:
				h.in.Nack(j)
			}
		}
		h.fire(lanePhaseStart)
	})
	h.OnReact(func() {
		if defaultCount(h.sim) > h.defaults {
			h.fire(lanePhaseResidue)
		} else {
			h.fire(lanePhaseReact)
		}
	})
	h.OnCycleEnd(func() {
		h.fire(lanePhaseEnd)
		for _, p := range []*Port{h.out, h.in} {
			for j := 0; j < p.Width(); j++ {
				if v, ok := p.TransferredData(j); ok {
					fmt.Fprintf(&r.log, " moved %s[%d]=%v\n", p.Name(), j, v)
				}
			}
		}
	})
	return h
}

// defaultCount is how many signals default control has resolved so far.
func defaultCount(s *Sim) uint64 {
	m := s.metrics
	return m.DefaultFallbacks(SigData) + m.DefaultFallbacks(SigEnable) + m.DefaultFallbacks(SigAck)
}

func newLanePeer(r *laneRig, k int) *lanePeer {
	p := &lanePeer{rig: r, first: 2 * k}
	p.Init(fmt.Sprintf("peer%d", k), p)
	p.in = p.AddInPort("in")
	p.out = p.AddOutPort("out")
	p.OnCycleStart(func() {
		cy := r.cycle()
		for i := 0; i < p.out.Width(); i++ {
			switch cy.inOffer[p.first+i] {
			case Yes:
				p.out.Send(i, 200+p.first+i)
				p.out.Enable(i)
			case No:
				p.out.SendNothing(i)
				p.out.Disable(i)
			}
		}
	})
	p.OnReact(func() {
		// Observe what the hub drives, as a real receiver would.
		seen := ""
		for i := 0; i < p.in.Width(); i++ {
			seen += p.in.DataStatus(i).String() + p.in.EnableStatus(i).String() + p.out.AckStatus(i).String()
		}
		fmt.Fprintf(&r.log, " react %s sees %s\n", p.name, seen)
	})
	return p
}

// laneTracer records every resolution into the rig's log.
type laneTracer struct{ rig *laneRig }

func (t *laneTracer) OnCycleBegin(uint64) {}
func (t *laneTracer) OnCycleEnd(uint64)   {}
func (t *laneTracer) OnResolve(c *Conn, k SigKind, s Status) {
	fmt.Fprintf(&t.rig.log, " resolve c%d %s=%s\n", c.id, k, s)
}

type laneDiscipline struct {
	name   string
	opts   []BuildOption
	tracer bool
}

var laneDisciplines = []laneDiscipline{
	{name: "single-writer", opts: []BuildOption{WithScheduler(SchedulerSequential)}},
	{name: "residue", opts: []BuildOption{WithScheduler(SchedulerSparse)}},
	{name: "tracer", opts: []BuildOption{WithScheduler(SchedulerSparse)}, tracer: true},
}

func buildLaneRig(t testing.TB, cs *laneCase, d laneDiscipline, fused bool) *laneRig {
	t.Helper()
	r := &laneRig{cs: cs, fused: fused}
	opts := append([]BuildOption{WithMetrics()}, d.opts...)
	if d.tracer {
		opts = append(opts, WithTracer(&laneTracer{rig: r}))
	}
	b := NewBuilder(opts...)
	r.hub = newLaneHub(r)
	b.Add(r.hub)
	peers := make([]*lanePeer, (cs.width+1)/2)
	for k := range peers {
		peers[k] = newLanePeer(r, k)
		b.Add(peers[k])
	}
	for j := 0; j < cs.width; j++ {
		b.Connect(r.hub, "out", peers[j/2], "in")
	}
	for j := 0; j < cs.width; j++ {
		b.Connect(peers[j/2], "out", r.hub, "in")
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Close)
	r.sim = sim
	return r
}

// run plays the case and returns everything observed.
func (r *laneRig) run() string {
	if r.cs.outside {
		// Outside any phase nothing may be driven; on a fresh plane every
		// lane is Unknown, so a write operation with a lane in range raises.
		cy := r.cs.cycles[0]
		p := r.hub.out
		if cy.onIn {
			p = r.hub.in
		}
		func() {
			defer func() { fmt.Fprintf(&r.log, "outside: %v\n", recover()) }()
			fmt.Fprintf(&r.log, "outside -> %s\n", runLaneOp(p, cy.op, cy.lo, cy.hi, r.fused))
		}()
	}
	for range r.cs.cycles {
		if r.full {
			r.sim.InvalidateActivity()
		}
		err := r.sim.Step()
		fmt.Fprintf(&r.log, "step: %v\n", err)
		for _, c := range r.sim.conns {
			fmt.Fprintf(&r.log, " c%d %s%s%s", c.id, c.status(SigData), c.status(SigEnable), c.status(SigAck))
		}
		fmt.Fprintf(&r.log, "\n")
		r.capture()
	}
	return r.log.String()
}

// checkLaneCase runs the twins under one discipline and reports how often
// the fused twin's operation fired per phase.
func checkLaneCase(t testing.TB, cs *laneCase, d laneDiscipline) [lanePhases]int {
	t.Helper()
	fused := buildLaneRig(t, cs, d, true)
	literal := buildLaneRig(t, cs, d, false)
	sameLogs(t, fmt.Sprintf("%s, width %d", d.name, cs.width), "fused", "literal", fused.run(), literal.run())
	return fused.fires
}

// sameLogs fails t at the first line where the got log differs from the
// want log, showing the lines before it.
func sameLogs(t testing.TB, what, gotName, wantName, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			lo := max(0, i-6)
			t.Fatalf("%s: %s and %s diverge at log line %d\n%s:\n%s\n%s:\n%s", what, gotName, wantName, i,
				gotName, strings.Join(gl[lo:i+1], "\n"), wantName, strings.Join(wl[lo:min(i+1, len(wl))], "\n"))
		}
	}
	t.Fatalf("%s: the %s log is a prefix of the %s log", what, gotName, wantName)
}

// checkTracerNeutral runs the case untraced and traced under one
// scheduler: attaching a tracer changes no resolution. Apart from the
// tracer's own lines, and with the untraced session sweeping in full as
// the traced one does, the two logs must be the same.
func checkTracerNeutral(t testing.TB, cs *laneCase, d laneDiscipline) {
	t.Helper()
	untraced := buildLaneRig(t, cs, d, true)
	untraced.full = true
	d.tracer = true
	traced := buildLaneRig(t, cs, d, true)
	var kept []string
	for _, l := range strings.Split(traced.run(), "\n") {
		if !strings.HasPrefix(l, " resolve c") {
			kept = append(kept, l)
		}
	}
	sameLogs(t, fmt.Sprintf("%s, width %d", d.name, cs.width), "untraced", "traced", untraced.run(), strings.Join(kept, "\n"))
}

func TestLaneOpsEquivalence(t *testing.T) {
	for _, d := range laneDisciplines {
		t.Run(d.name, func(t *testing.T) {
			var fires [lanePhases]int
			for _, width := range []int{0, 1, 5, 65} {
				// A fixed linear-congruential stream: the cases are the
				// same on every run, and plentiful enough to meet every
				// operation in every phase.
				x := uint32(width*7919 + 1)
				for n := 0; n < 120; n++ {
					buf := make([]byte, 16+12*width)
					for i := range buf {
						x = x*1664525 + 1013904223
						buf[i] = byte(x >> 24)
					}
					cs := decodeLaneCase(width, &byteSrc{b: buf})
					f := checkLaneCase(t, cs, d)
					if !d.tracer {
						checkTracerNeutral(t, cs, d)
					}
					for i := range fires {
						fires[i] += f[i]
					}
				}
			}
			for phase, n := range fires {
				if n == 0 {
					t.Errorf("no operation ever fired in phase %d", phase)
				}
			}
		})
	}
}

// TestLaneOpsContractErrors pins the four illegal calls by name: each
// raises, from the fused operation, the contract error its first
// offending single-lane call raises, and from a single-lane drive the
// same error traced as untraced.
func TestLaneOpsContractErrors(t *testing.T) {
	u5 := []Status{Unknown, Unknown, Unknown, Unknown, Unknown}
	quietCycle := laneCycle{outData: u5, outEnable: u5, inOffer: u5, inAck: u5, op: laneOpCountOffers}
	for _, tc := range []struct {
		name    string
		cy      laneCycle
		outside bool
		want    string
	}{
		{name: "re-raise to a different status",
			cy:   laneCycle{outData: u5, outEnable: []Status{Unknown, Unknown, Yes, Unknown, Unknown}, inOffer: u5, inAck: u5, op: laneOpIdle},
			want: "already resolved to yes, cannot re-raise to no"},
		{name: "write outside the phase", outside: true,
			cy:   laneCycle{outData: u5, outEnable: u5, inOffer: u5, inAck: u5, op: laneOpNackRest, onIn: true},
			want: "signals may be driven only during cycle-start or reactive phases"},
		{name: "wrong direction",
			cy:   laneCycle{outData: u5, outEnable: u5, inOffer: u5, inAck: u5, op: laneOpIdle, onIn: true},
			want: "not allowed on an in port"},
		{name: "lane out of range",
			cy:   laneCycle{outData: u5, outEnable: u5, inOffer: u5, inAck: u5, op: laneOpNackLanes, onIn: true, lo: 3, hi: 6},
			want: "port has width 5"},
		{name: "drive: re-raise to a different status",
			cy:   laneCycle{outData: u5, outEnable: []Status{Unknown, Unknown, Yes, Unknown, Unknown}, inOffer: u5, inAck: u5, op: laneOpDisable, lo: 2},
			want: "already resolved to yes, cannot re-raise to no"},
		{name: "drive: re-raise data to a different status",
			cy:   laneCycle{outData: []Status{No, Unknown, Unknown, Unknown, Unknown}, outEnable: u5, inOffer: u5, inAck: u5, op: laneOpSend},
			want: "already resolved to no, cannot re-raise to yes"},
		{name: "drive: write outside the phase", outside: true,
			cy:   laneCycle{outData: u5, outEnable: u5, inOffer: u5, inAck: u5, op: laneOpAck, onIn: true, lo: 1},
			want: "signals may be driven only during cycle-start or reactive phases"},
		{name: "drive: wrong direction",
			cy:   laneCycle{outData: u5, outEnable: u5, inOffer: u5, inAck: u5, op: laneOpSend, onIn: true},
			want: "not allowed on an in port"},
		{name: "drive: lane out of range",
			cy:   laneCycle{outData: u5, outEnable: u5, inOffer: u5, inAck: u5, op: laneOpNack, onIn: true, lo: 5},
			want: "port has width 5"},
	} {
		cs := &laneCase{width: 5, outside: tc.outside, cycles: []laneCycle{tc.cy, quietCycle}}
		for _, d := range laneDisciplines {
			checkLaneCase(t, cs, d)
			if !d.tracer {
				checkTracerNeutral(t, cs, d)
			}
			r := buildLaneRig(t, cs, d, true)
			if log := r.run(); !strings.Contains(log, tc.want) {
				t.Errorf("%s, %s: fused operation did not raise %q:\n%s", tc.name, d.name, tc.want, log)
			}
		}
	}
}

// TestLaneDrivesUnbound: a drive on a port whose instance was never
// built has no lane table and raises the contract error it always did —
// "port not attached" on a port with no connection, "connection not
// attached" on one wired into a netlist that was not built.
func TestLaneDrivesUnbound(t *testing.T) {
	b := NewBuilder()
	r := &laneRig{cs: &laneCase{}}
	hub, peer, lone := newLaneHub(r), newLanePeer(r, 0), newLaneHub(r)
	b.Add(hub)
	b.Add(peer)
	b.Connect(hub, "out", peer, "in")
	b.Connect(peer, "out", hub, "in")
	for _, tc := range []struct {
		name string
		out  *Port
		in   *Port
		want string
	}{
		{"no connection", lone.out, lone.in, "port not attached to a simulator"},
		{"not built", hub.out, hub.in, "connection not attached to a simulator"},
	} {
		for _, op := range []int{laneOpSend, laneOpSendNothing, laneOpEnable, laneOpDisable, laneOpAck, laneOpNack} {
			p := tc.out
			if op >= laneOpAck {
				p = tc.in
			}
			func() {
				defer func() {
					ce, ok := recover().(*ContractError)
					if !ok || !strings.Contains(ce.Error(), tc.want) {
						t.Errorf("%s: op %d raised %v, want a ContractError saying %q", tc.name, op, ce, tc.want)
					}
				}()
				runLaneOp(p, op, 0, 0, true)
			}()
		}
	}
}

// FuzzLaneOps feeds the equivalence harness from the fuzzer's bytes: the
// first picks the width and the discipline, the rest script the case.
func FuzzLaneOps(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is under testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSrc{b: data}
		sel := src.next()
		width := sel % 10
		if width == 9 {
			width = 65
		}
		// The selector keeps its four-way split. Its fourth value selected
		// a multi-worker discipline (removed with the engines it
		// exercised); it now selects the engine's untraced one.
		di := sel / 10 % 4
		if di == 3 {
			di = 1 // residue: the engine, no tracer
		}
		d := laneDisciplines[di]
		cs := decodeLaneCase(width, src)
		checkLaneCase(t, cs, d)
		if !d.tracer {
			checkTracerNeutral(t, cs, d)
		}
	})
}
