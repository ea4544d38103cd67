package vetlse

import (
	"go/parser"
	"go/token"
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

func TestStatefulGobSymmetricPairClean(t *testing.T) {
	src := `package m

type qState struct {
	Entries []int
	Head    int
}

func (q *queue) MarshalState() ([]byte, error) {
	return gobEncode(qState{Entries: q.entries, Head: q.head})
}

func (q *queue) UnmarshalState(blob []byte) error {
	var st qState
	if err := gobDecode(blob, &st); err != nil {
		return err
	}
	q.entries = st.Entries
	q.head = st.Head
	return nil
}
`
	if fs := check(t, src); len(fs) != 0 {
		t.Fatalf("symmetric pair flagged: %v", fs)
	}
}

func TestStatefulGobAsymmetricFields(t *testing.T) {
	src := `package m

type qState struct {
	Entries []int
	Head    int
}

func (q *queue) MarshalState() ([]byte, error) {
	return gobEncode(qState{Entries: q.entries, Head: q.head})
}

func (q *queue) UnmarshalState(blob []byte) error {
	var st qState
	if err := gobDecode(blob, &st); err != nil {
		return err
	}
	q.entries = st.Entries
	return nil
}
`
	fs := check(t, src)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "Head") {
		t.Fatalf("want 1 finding about unrestored Head, got %v", fs)
	}
}

func TestStatefulGobMissingCounterpart(t *testing.T) {
	src := `package m

func (q *queue) MarshalState() ([]byte, error) {
	return gobEncode(qState{Head: q.head})
}
`
	fs := check(t, src)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "UnmarshalState") {
		t.Fatalf("want 1 missing-counterpart finding, got %v", fs)
	}
}

func TestStatefulGobEmptyBlobExempt(t *testing.T) {
	src := `package m

func (t *tee) MarshalState() ([]byte, error) { return nil, nil }

func (t *tee) UnmarshalState([]byte) error { return nil }
`
	if fs := check(t, src); len(fs) != 0 {
		t.Fatalf("empty-blob impl flagged: %v", fs)
	}
}

func TestStatefulGobBoxedPayloadNeedsRegister(t *testing.T) {
	src := `package m

type sState struct {
	Pending []any
}

func (s *src) MarshalState() ([]byte, error) {
	return gobEncode(sState{Pending: s.pending})
}

func (s *src) UnmarshalState(blob []byte) error {
	var st sState
	if err := gobDecode(blob, &st); err != nil {
		return err
	}
	s.pending = st.Pending
	return nil
}
`
	fs := check(t, src)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "gob.Register") {
		t.Fatalf("want 1 gob.Register finding, got %v", fs)
	}
	srcWithRegister := src + `
func init() { gob.Register(0) }
`
	if fs := check(t, srcWithRegister); len(fs) != 0 {
		t.Fatalf("registered package still flagged: %v", fs)
	}
}
