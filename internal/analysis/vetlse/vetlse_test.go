package vetlse

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func check(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "mod.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return CheckFile(fset, file)
}

func TestFlagsWritesInCycleEndHandler(t *testing.T) {
	src := `package m

func build(q *queue) {
	q.OnCycleEnd(func() {
		if q.Out.AckStatus(0) == Yes {
			q.pop()
		}
		q.Out.Send(0, q.head()) // illegal: commit phase
		q.In.Ack(0)             // illegal: commit phase
	})
}
`
	fs := check(t, src)
	if len(fs) != 2 {
		t.Fatalf("want 2 findings, got %d: %v", len(fs), fs)
	}
	if fs[0].Method != "Send" || fs[0].Pos.Line != 8 {
		t.Errorf("finding 0 = %+v, want Send at line 8", fs[0])
	}
	if fs[1].Method != "Ack" || fs[1].Pos.Line != 9 {
		t.Errorf("finding 1 = %+v, want Ack at line 9", fs[1])
	}
	if !strings.Contains(fs[0].Message, "OnCycleEnd") {
		t.Errorf("message should name the offending phase: %s", fs[0].Message)
	}
}

func TestLegalPhasesNotFlagged(t *testing.T) {
	src := `package m

func build(q *queue) {
	q.OnReact(func() {
		q.Out.Send(0, 1)
		q.In.Ack(0)
	})
	q.OnCycleStart(func() {
		q.Out.SendNothing(0)
	})
	q.OnCycleEnd(func() {
		n := q.Out.Transferred(0) // reads are fine
		q.count += boolToInt(n)
	})
}
`
	if fs := check(t, src); len(fs) != 0 {
		t.Fatalf("legal phases flagged: %v", fs)
	}
}

func TestNestedLiteralInsideCycleEndStillFlagged(t *testing.T) {
	src := `package m

func build(q *queue) {
	q.OnCycleEnd(func() {
		each(q.conns, func(i int) {
			q.In.Nack(i)
		})
	})
}
`
	fs := check(t, src)
	if len(fs) != 1 || fs[0].Method != "Nack" {
		t.Fatalf("want 1 Nack finding, got %v", fs)
	}
}

func TestIgnoreComment(t *testing.T) {
	src := `package m

func build(q *queue) {
	q.OnCycleEnd(func() {
		q.log.Send(0, "msg") //vetlse:ignore — not a Port
	})
}
`
	if fs := check(t, src); len(fs) != 0 {
		t.Fatalf("ignored line still flagged: %v", fs)
	}
}

func TestCheckFilesReportsParseErrors(t *testing.T) {
	fs := CheckFiles([]string{"testdata/does-not-exist.go"})
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "parse error") {
		t.Fatalf("want 1 parse-error finding, got %v", fs)
	}
}

func TestMethodValueHandlerResolved(t *testing.T) {
	src := `package m

func build(q *queue) {
	q.OnCycleEnd(q.commit)
}

func (q *queue) commit() {
	q.In.Nack(0) // illegal: commit phase
}
`
	fs := check(t, src)
	if len(fs) != 1 || fs[0].Method != "Nack" {
		t.Fatalf("want 1 Nack finding via method value, got %v", fs)
	}
}

// TestFusedLaneOpsFlagged: the fused lane operations are write-phase
// operations like the single-lane calls they stand for; each is caught
// both as a direct call in a handler literal and through a handler
// registered as a method value. The fused reads stay legal.
func TestFusedLaneOpsFlagged(t *testing.T) {
	for _, op := range []string{"Out.Idle()", "Out.IdleLanes(1, n)", "In.NackRest()", "In.NackLanes(0, n)"} {
		method := op[strings.Index(op, ".")+1 : strings.Index(op, "(")]
		for _, src := range []string{`package m

func build(q *queue) {
	q.OnCycleEnd(func() {
		q.` + op + `
	})
}
`, `package m

func build(q *queue) {
	q.OnCycleEnd(q.commit)
}

func (q *queue) commit() {
	for i := q.In.NextTransferred(0); i >= 0; i = q.In.NextTransferred(i + 1) {
		q.take(q.In.Data(i))
	}
	q.` + op + `
}
`} {
			fs := check(t, src)
			if len(fs) != 1 || fs[0].Method != method {
				t.Errorf("%s: want 1 %s finding, got %v", op, method, fs)
			}
		}
	}
	legal := `package m

func build(q *queue) {
	q.OnCycleStart(func() { q.Out.Idle() })
	q.OnReact(func() {
		q.reqs, _ = q.In.Offers(q.reqs)
		q.In.NackRest()
	})
	q.OnCycleEnd(func() {
		n, _ := q.In.CountOffers()
		q.seen += n + q.In.NextOffered(0)
	})
}
`
	if fs := check(t, legal); len(fs) != 0 {
		t.Fatalf("legal fused calls flagged: %v", fs)
	}
}

// sequentialFindings runs only the sequential pass over one source file.
func sequentialFindings(t *testing.T, src string) []Finding {
	t.Helper()
	var out []Finding
	for _, f := range check(t, src) {
		if f.Check == "sequential" {
			out = append(out, f)
		}
	}
	return out
}

// TestSequentialFlagsMirroredAck: a marked template whose react handler
// mirrors the ack it sees on its Out port onto its In port (pcl.Route's
// shape) has a same-cycle path between its ports.
func TestSequentialFlagsMirroredAck(t *testing.T) {
	src := `package m

func NewRoute(name string) *Route {
	r := &Route{}
	r.Init(name, r)
	r.In = r.AddInPort("in")
	r.Out = r.AddOutPort("out")
	r.OnReact(r.react)
	r.MarkSequential()
	return r
}

func (r *Route) react() {
	switch r.Out.AckStatus(r.pick) {
	case Yes:
		r.In.Ack(0)
	case No:
		r.In.Nack(0)
	}
}
`
	fs := sequentialFindings(t, src)
	if len(fs) != 1 || fs[0].Pos.Line != 14 || !strings.Contains(fs[0].Message, "r.Out.AckStatus") {
		t.Fatalf("want 1 finding on r.Out.AckStatus at line 14, got %v", fs)
	}
}

// TestSequentialFlagsStartRead: a marked template whose start handler
// reads a port status drives what it was offered, not its state.
func TestSequentialFlagsStartRead(t *testing.T) {
	src := `package m

func NewStage(name string) *Stage {
	s := &Stage{}
	s.Init(name, s)
	s.In = s.AddInPort("in")
	s.Out = s.AddOutPort("out")
	s.OnCycleStart(func() {
		if s.In.DataStatus(0) == Yes {
			s.Out.Send(0, s.buf)
		}
		s.Out.Idle()
	})
	s.MarkSequential()
	return s
}
`
	fs := sequentialFindings(t, src)
	if len(fs) != 1 || fs[0].Pos.Line != 9 || !strings.Contains(fs[0].Message, "start handler reads s.In.DataStatus") {
		t.Fatalf("want 1 finding on s.In.DataStatus at line 9, got %v", fs)
	}
}

// TestSequentialFollowsHelpers: calls on the receiver resolve into the
// type's methods and an embedded type's, a port handed to a helper binds
// its parameter, and Width, Name and the drives are legal at cycle start.
// A read reached through a helper is still a read.
func TestSequentialFollowsHelpers(t *testing.T) {
	src := `package m

type mixin struct{ q []int }

func (m *mixin) offer(port *Port) {
	if len(m.q) > 0 && port.Width() > 0 {
		port.Send(0, m.q[0])
		port.Enable(0)
	} else {
		port.SendNothing(0)
		port.Disable(0)
	}
}

type Ctrl struct {
	Base
	mixin
	CPU, Net *Port
}

func NewCtrl(name string) *Ctrl {
	c := &Ctrl{}
	c.Init(name, c)
	c.count = c.Counter("n")
	c.CPU = c.AddInPort("cpu")
	c.Net = c.AddOutPort("net")
	c.OnCycleStart(c.cycleStart)
	c.OnReact(c.react)
	c.MarkSequential()
	return c
}

func (c *Ctrl) cycleStart() {
	c.offer(c.Net)
}

func (c *Ctrl) react() {
	if !c.CPU.AckStatus(0).Known() && c.busy() {
		c.CPU.Nack(0)
	}
}

func (c *Ctrl) busy() bool { return peek(c.Net) }

func peek(p *Port) bool { return p.Transferred(0) }
`
	fs := sequentialFindings(t, src)
	if len(fs) != 1 || fs[0].Pos.Line != 45 || !strings.Contains(fs[0].Message, "p.Transferred") {
		t.Fatalf("want 1 finding on p.Transferred at line 45, got %v", fs)
	}
}

// TestSequentialUnresolvedCalls: a call the pass cannot follow is
// reported, and //vetlse:ignore excuses it.
func TestSequentialUnresolvedCalls(t *testing.T) {
	src := `package m

func NewQ(name string) *Q {
	q := &Q{}
	q.Init(name, q)
	q.In = q.AddInPort("in")
	q.Out = q.AddOutPort("out")
	q.OnCycleStart(func() {
		q.sel(q.entries)
		q.Ports()
		log.Print(q.In)
		q.policy(q.entries) //vetlse:ignore the policy sees entries only
	})
	q.MarkSequential()
	return q
}
`
	fs := sequentialFindings(t, src)
	if len(fs) != 3 || fs[0].Pos.Line != 9 || fs[1].Pos.Line != 10 || fs[2].Pos.Line != 11 {
		t.Fatalf("want unresolved-call findings at lines 9, 10 and 11, got %v", fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.Message, "cannot follow") {
			t.Errorf("finding does not say the call is unresolved: %s", f.Message)
		}
	}
}

// TestSequentialPassesMarkedTemplates runs the pass over the packages
// that carry MarkSequential templates: every mark is checked and none is
// flagged.
func TestSequentialPassesMarkedTemplates(t *testing.T) {
	want := map[string]string{
		"../../pcl":     "[Delay MemArray Queue]",
		"../../ccl":     "[Link Wireless]",
		"../../nilib":   "[DMAEngine MAC]",
		"../../systems": "[Gateway]",
		"../../mpl":     "[CacheCtrl DMACtrl DirHome L1Dir OrderingCtrl SnoopBus TraceCore]",
	}
	for dir, marked := range want {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		checked, fs := checkSequential(fset, files)
		if fmt.Sprint(checked) != marked || len(fs) != 0 {
			t.Errorf("%s: checked %v with findings %v, want %s clean", dir, checked, fs, marked)
		}
	}
}
