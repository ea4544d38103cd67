package analysis_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"liberty/internal/analysis"
	_ "liberty/internal/ccl" // register templates
	core "liberty/internal/core"
	"liberty/internal/lss"
	"liberty/internal/obs"
	_ "liberty/internal/pcl"
)

// relay is a minimal test module: one in, one out, with handlers, so the
// handshake pass has nothing to say about it. It is not MarkSequential,
// so a ring of relays is a combinational cycle.
type relay struct{ core.Base }

func buildRelay(b *core.Builder, name string, p core.Params) (core.Instance, error) {
	m := &relay{}
	m.Init(name, m)
	m.AddInPort("in", core.PortOpts{DefaultAck: core.No})
	m.AddOutPort("out")
	m.OnReact(func() {})
	m.OnCycleEnd(func() {})
	return m, nil
}

// leaky declares handshake hazards on purpose: an output that commits
// enable unconditionally and an input acknowledged with no handler to
// observe the data.
type leaky struct{ core.Base }

func buildLeaky(b *core.Builder, name string, p core.Params) (core.Instance, error) {
	m := &leaky{}
	m.Init(name, m)
	m.AddInPort("in") // engine default acks firm data; no handlers below
	m.AddOutPort("out", core.PortOpts{DefaultEnable: core.Yes})
	return m, nil
}

func init() {
	core.Register(&core.Template{Name: "ana.relay", Doc: "test relay", Build: buildRelay})
	core.Register(&core.Template{Name: "ana.leaky", Doc: "test module with handshake hazards", Build: buildLeaky})
}

func lint(t *testing.T, src string) *analysis.Report {
	t.Helper()
	return analysis.LintSource("test.lss", src)
}

// codes extracts the diagnostic codes of a report in order.
func codes(r *analysis.Report) []string {
	out := make([]string, 0, r.Len())
	for _, d := range r.Diags {
		out = append(out, d.Code)
	}
	return out
}

func findCode(r *analysis.Report, code string) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range r.Diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func TestCleanPipelineLintsClean(t *testing.T) {
	src := `
instance src : pcl.source(rate = 1.0, count = 20);
instance q   : pcl.queue(capacity = 4);
instance snk : pcl.sink(keep = true);
src.out -> q.in;
q.out -> snk.in;
`
	r := lint(t, src)
	if r.Len() != 0 {
		var sb strings.Builder
		r.WriteText(&sb)
		t.Fatalf("clean pipeline produced diagnostics:\n%s", sb.String())
	}
}

func TestUnconnectedOptionalPortsReported(t *testing.T) {
	src := `
instance src : pcl.source(count = 5);
instance q   : pcl.queue(capacity = 2);
instance snk : pcl.sink();
src.out -> snk.in;
`
	r := lint(t, src)
	diags := findCode(r, "LSE001")
	if len(diags) != 2 {
		t.Fatalf("want 2 LSE001 for q.in and q.out, got %d: %v", len(diags), codes(r))
	}
	wantWhere := map[string]string{
		"q.in":  "ack firm data", // queue overrides DefaultAck=No
		"q.out": "enable follows data",
	}
	for _, d := range diags {
		if d.Severity != analysis.Info {
			t.Errorf("%s: severity %s, want info", d.Where, d.Severity)
		}
		if _, ok := wantWhere[d.Where]; !ok {
			t.Errorf("unexpected LSE001 anchor %q", d.Where)
		}
		if d.File != "test.lss" || d.Line != 3 {
			t.Errorf("%s: position %s:%d, want test.lss:3", d.Where, d.File, d.Line)
		}
	}
	// q.in declares DefaultAck=No, so the message names the override,
	// not the engine default.
	for _, d := range diags {
		if d.Where == "q.in" && !strings.Contains(d.Message, "DefaultAck=no") {
			t.Errorf("q.in message should name the DefaultAck override, got %q", d.Message)
		}
		if d.Where == "q.out" && !strings.Contains(d.Message, "enable follows data") {
			t.Errorf("q.out message should name the engine default, got %q", d.Message)
		}
	}
	// The isolated queue is reported through its ports only.
	if r.Len() != 2 {
		t.Errorf("want only the 2 LSE001, got %v", codes(r))
	}
}

// TestBreakableCycleIsWarning: a ring of unmarked reactive templates is a
// combinational cycle default control breaks. The same ring of queues is
// none: a MarkSequential queue has no same-cycle path between its ports.
func TestBreakableCycleIsWarning(t *testing.T) {
	ring := `
instance a : %s;
instance b : %s;
a.out -> b.in;
b.out -> a.in;
`
	queues := "pcl.queue(capacity = 2)"
	if r := lint(t, fmt.Sprintf(ring, queues, queues)); len(findCode(r, "LSE002")) != 0 {
		t.Errorf("a ring of queues: want no LSE002, got %v", codes(r))
	}
	r := lint(t, fmt.Sprintf(ring, "pcl.tee()", "pcl.tee()"))
	diags := findCode(r, "LSE002")
	if len(diags) != 1 {
		t.Fatalf("want 1 LSE002, got %v", codes(r))
	}
	d := diags[0]
	if d.Severity != analysis.Warning {
		t.Errorf("severity %s, want warning (cycle is breakable)", d.Severity)
	}
	for _, member := range []string{"a", "b"} {
		if !strings.Contains(d.Message, member) {
			t.Errorf("message does not name member %q: %s", member, d.Message)
		}
	}
	if !strings.Contains(d.Message, "breaks it at") {
		t.Errorf("message should name the break site: %s", d.Message)
	}
	// A loop with no sink is no finding: the paper's closed
	// request/response systems have that shape.
	if r.Len() != 1 {
		t.Errorf("want only the LSE002, got %v", codes(r))
	}
}

// relayRing is a ring of two unmarked reactive relays: a combinational
// cycle, which default resolution breaks.
const relayRing = `
instance a : ana.relay();
instance b : ana.relay();
a.out -> b.in;
b.out -> a.in;
`

// TestUnbreakableCycleIsError: every combinational cycle has a valid
// break, so no cycle is an error. A two-relay ring is one LSE002 warning
// naming both members and the break site.
func TestUnbreakableCycleIsError(t *testing.T) {
	r := lint(t, relayRing)
	if r.Len() != 1 {
		t.Fatalf("want 1 diagnostic, got %v:\n%s", codes(r), text(r))
	}
	d := r.Diags[0]
	if d.Code != "LSE002" || d.Severity != analysis.Warning {
		t.Fatalf("got %s[%s], want LSE002[warning]", d.Code, d.Severity)
	}
	if !strings.Contains(d.Message, "a, b") || !strings.Contains(d.Message, "breaks it at") {
		t.Errorf("message should name the members and the break site: %s", d.Message)
	}
}

func TestHandshakeHazards(t *testing.T) {
	src := `
instance src : pcl.source(count = 5);
instance bad : ana.leaky();
instance snk : pcl.sink();
src.out -> bad.in;
bad.out -> snk.in;
`
	r := lint(t, src)
	diags := findCode(r, "LSE003")
	if len(diags) != 2 {
		t.Fatalf("want 2 LSE003 (unconditional enable + silently dropped input), got %v", codes(r))
	}
	var sawEnable, sawDropped bool
	for _, d := range diags {
		if strings.Contains(d.Message, "firm empty handshake") {
			sawEnable = true
		}
		if strings.Contains(d.Message, "silently dropped") {
			sawDropped = true
		}
	}
	if !sawEnable || !sawDropped {
		t.Errorf("missing hazard: enable=%v dropped=%v", sawEnable, sawDropped)
	}
}

// TestDuplicateDriverReportedOnce: wiring one port pair twice gives both
// ports width 2, two independent handshakes. That is how a port gets its
// width, so it reports nothing.
func TestDuplicateDriverReportedOnce(t *testing.T) {
	src := `
instance src : pcl.source(count = 5);
instance snk : pcl.sink();
src.out -> snk.in;
src.out -> snk.in;
`
	if r := lint(t, src); r.Len() != 0 {
		t.Fatalf("a width-2 port pair reported:\n%s", text(r))
	}
}

// TestHierarchyExportDiagnostics: a composite is reported only when it
// exports nothing. An export left unbound is reported once, by LSE001 on
// the child port it aliases.
func TestHierarchyExportDiagnostics(t *testing.T) {
	src := `
module box() {
    instance q : pcl.queue(capacity = 2);
    export in  = q.in;
    export out = q.out;
}
instance src : pcl.source(count = 5);
instance b   : box();
instance snk : pcl.sink();
src.out -> b.in;
b.out -> snk.in;
`
	if r := lint(t, src); r.Len() != 0 {
		t.Fatalf("fully wired composite reported:\n%s", text(r))
	}
	// Drop the consumer of b.out: the export is bound to nothing.
	r := lint(t, strings.Replace(src, "b.out -> snk.in;", "", 1))
	if len(findCode(r, "LSE006")) != 0 {
		t.Errorf("dangling export tripped LSE006: %v", codes(r))
	}
	if !reportedAt(r, "LSE001", "b/q.out") {
		t.Errorf("LSE001 does not report the dangling export's port b/q.out:\n%s", text(r))
	}
	// A composite that exports nothing is the warning.
	r = lint(t, `
module box() {
    instance q : pcl.queue(capacity = 2);
}
instance b : box();
`)
	diags := findCode(r, "LSE006")
	if len(diags) != 1 || diags[0].Where != "b" || diags[0].Severity != analysis.Warning {
		t.Fatalf("want 1 LSE006 warning on b, got %v:\n%s", codes(r), text(r))
	}
	if !strings.Contains(diags[0].Message, "exports nothing") {
		t.Errorf("unexpected message: %s", diags[0].Message)
	}
}

func reportedAt(r *analysis.Report, code, where string) bool {
	for _, d := range findCode(r, code) {
		if d.Where == where {
			return true
		}
	}
	return false
}

func TestParamHygiene(t *testing.T) {
	src := `
module m(depth = 2, unusedParam = 0) {
    instance q : pcl.queue(capacity = depth);
    export in  = q.in;
    export out = q.out;
}
let unusedLet = 7;
let n = 1;
instance src : pcl.source(count = 5);
instance p   : m(depth = n);
instance snk : pcl.sink();
src.out -> p.in;
p.out -> snk.in;
`
	r := lint(t, src)
	diags := findCode(r, "LSE005")
	if len(diags) != 2 {
		t.Fatalf("want 2 LSE005 (unused parameter + unused let), got %v:\n%s", codes(r), text(r))
	}
	var sawParam, sawLet bool
	for _, d := range diags {
		switch d.Where {
		case "unusedParam":
			sawParam = true
			if d.Severity != analysis.Warning {
				t.Errorf("unused parameter severity %s, want warning", d.Severity)
			}
		case "unusedLet":
			sawLet = true
			if d.Severity != analysis.Info {
				t.Errorf("unused let severity %s, want info", d.Severity)
			}
		}
	}
	if !sawParam || !sawLet {
		t.Errorf("missing diagnostics: param=%v let=%v", sawParam, sawLet)
	}
}

func TestShadowingDiagnostics(t *testing.T) {
	// Scoping is erased by elaboration; the spec pass reads the AST
	// before the build.
	r := lint(t, `
let n = 2;
let m = n;
for n in 0 .. m {
    let unused = 1;
}
let idx = 3;
`)
	diags := findCode(r, "LSE005")
	var sawShadow, sawIdx bool
	for _, d := range diags {
		if d.Where == "n" && strings.Contains(d.Message, "shadows the let") {
			sawShadow = true
			if d.Line != 4 {
				t.Errorf("shadow diagnostic at line %d, want 4", d.Line)
			}
		}
		if d.Where == "idx" && strings.Contains(d.Message, "reserved") {
			sawIdx = true
		}
	}
	if !sawShadow || !sawIdx {
		t.Fatalf("missing diagnostics (shadow=%v idx=%v):\n%s", sawShadow, sawIdx, text(r))
	}
}

// TestDeadStructureDetection: a loop with no sink is no finding. Its
// shape cannot tell a leak from the paper's closed systems: a fed queue
// ring and a closed request/response loop (a memory whose replies come
// back as its next requests, the shape of Fig 2a's L1/directory pairs)
// both report nothing.
func TestDeadStructureDetection(t *testing.T) {
	for name, src := range map[string]string{
		"fed queue ring": `
instance src  : pcl.source(count = 5);
instance q1   : pcl.queue(capacity = 2);
instance q2   : pcl.queue(capacity = 2);
instance src2 : pcl.source(count = 5);
instance snk  : pcl.sink();
src.out -> q1.in;
q1.out -> q2.in;
q2.out -> q1.in;
src2.out -> snk.in;
`,
		"closed request/response loop": `
instance mem : pcl.memarray(words = 16);
instance req : pcl.queue(capacity = 2);
mem.resp -> req.in;
req.out -> mem.req;
`,
	} {
		if r := lint(t, src); r.Len() != 0 {
			t.Errorf("%s reported:\n%s", name, text(r))
		}
	}
}

func TestParseErrorBecomesDiagnostic(t *testing.T) {
	r := analysis.LintSource("bad.lss", "instance src : pcl.source(count = 5);\ninstance ;")
	diags := findCode(r, "LSE000")
	if len(diags) != 1 {
		t.Fatalf("want 1 LSE000, got %v", codes(r))
	}
	d := diags[0]
	if d.Severity != analysis.Error || d.File != "bad.lss" || d.Line != 2 {
		t.Errorf("got %+v, want error at bad.lss:2", d)
	}
}

func TestUnknownTemplateBecomesDiagnostic(t *testing.T) {
	r := analysis.LintSource("bad.lss", "instance x : no.such.template();")
	diags := findCode(r, "LSE000")
	if len(diags) != 1 {
		t.Fatalf("want 1 LSE000, got %v", codes(r))
	}
	if diags[0].Line != 1 || !strings.Contains(diags[0].Message, "no.such.template") {
		t.Errorf("diagnostic should point at line 1 and name the template: %+v", diags[0])
	}
}

func TestBadParameterTypeBecomesDiagnostic(t *testing.T) {
	r := analysis.LintSource("bad.lss", `instance src : pcl.source(count = "many");`)
	if n := r.CountAtLeast(analysis.Error); n == 0 {
		t.Fatalf("ill-typed parameter produced no error diagnostics:\n%s", text(r))
	}
}

func TestPragmaSuppression(t *testing.T) {
	src := `
instance q : pcl.queue(capacity = 2); # lse:ignore LSE001
`
	r := analysis.LintSource("test.lss", src)
	if r.Len() != 0 {
		t.Fatalf("pragma on the declaring line should suppress all diagnostics, got:\n%s", text(r))
	}
	// Standalone pragma covers the next line.
	src = `
# lse:ignore
instance q : pcl.queue(capacity = 2);
`
	if r := analysis.LintSource("test.lss", src); r.Len() != 0 {
		t.Fatalf("standalone bare pragma should suppress the next line, got:\n%s", text(r))
	}
	// A pragma listing other codes suppresses only those: the unfed relay
	// reports LSE001 twice and LSE007 once.
	src = `
instance r : ana.relay(); # lse:ignore LSE007
`
	r = analysis.LintSource("test.lss", src)
	if len(findCode(r, "LSE001")) != 2 || len(findCode(r, "LSE007")) != 0 {
		t.Fatalf("selective pragma mishandled: %v", codes(r))
	}
}

// TestStrictBuildFailsOnUnbreakableCycle: the two-relay ring's LSE002
// warning fails the strict build with a *StrictError naming it, although
// the reference breaks the cycle and the plain build accepts it.
func TestStrictBuildFailsOnUnbreakableCycle(t *testing.T) {
	sim, err := lss.LoadFile("cycle.lss", relayRing, nil)
	if err != nil {
		t.Fatalf("plain build refused a breakable cycle: %v", err)
	}
	sim.Close()
	_, err = lss.LoadFile("cycle.lss", relayRing, nil, analysis.StrictOption())
	var se *analysis.StrictError
	if !errors.As(err, &se) {
		t.Fatalf("strict error is %T, want *analysis.StrictError: %v", err, err)
	}
	msg := err.Error()
	for _, want := range []string{"at or above warning severity", "LSE002", "a, b", "breaks it at"} {
		if !strings.Contains(msg, want) {
			t.Errorf("strict error should contain %q:\n%s", want, msg)
		}
	}
}

func TestStrictSeverityThreshold(t *testing.T) {
	// A tee ring is a combinational cycle, a warning: it fails strict
	// mode. The same ring of queues is no cycle and passes, and so does a
	// queue left unconnected, an informational finding.
	ring := `
instance a : %s;
instance b : %s;
a.out -> b.in;
b.out -> a.in;
`
	tees := fmt.Sprintf(ring, "pcl.tee()", "pcl.tee()")
	if _, err := lss.Load(tees, nil, analysis.StrictOption()); err == nil {
		t.Fatal("breakable cycle should fail strict analysis")
	}
	queues := fmt.Sprintf(ring, "pcl.queue(capacity = 2)", "pcl.queue(capacity = 2)")
	if _, err := lss.Load(queues, nil, analysis.StrictOption()); err != nil {
		t.Fatalf("a queue ring should pass strict analysis: %v", err)
	}
	if _, err := lss.Load("instance lone : pcl.queue(capacity = 1);", nil, analysis.StrictOption()); err != nil {
		t.Fatalf("an unconnected optional port (info) should pass strict analysis: %v", err)
	}
}

func TestAnalyzeSimOnGoNetlist(t *testing.T) {
	// Netlists assembled straight through the Go API analyze fine; the
	// diagnostics just carry no positions.
	b := core.NewBuilder()
	a, err := b.Instantiate("ana.relay", "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Instantiate("ana.relay", "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(a, "out", c, "in"); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(c, "out", a, "in"); err != nil {
		t.Fatal(err)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	r := analysis.AnalyzeSim(sim)
	diags := findCode(r, "LSE002")
	if len(diags) != 1 {
		t.Fatalf("want 1 LSE002, got %v", codes(r))
	}
	if diags[0].File != "" || diags[0].Line != 0 {
		t.Errorf("Go netlist diagnostic should be positionless, got %s:%d", diags[0].File, diags[0].Line)
	}
}

func TestActivityDiagnostics(t *testing.T) {
	// A reactive module with no connected input keeps its cluster open:
	// LSE007.
	src := `
instance r   : ana.relay();
instance snk : pcl.sink(keep = true);
r.out -> snk.in;
`
	r := lint(t, src)
	diags := findCode(r, "LSE007")
	if len(diags) != 1 || diags[0].Where != "r" {
		t.Fatalf("want 1 LSE007 on r, got %v:\n%s", codes(r), text(r))
	}
	if diags[0].Severity != analysis.Info {
		t.Errorf("LSE007 severity = %v, want info", diags[0].Severity)
	}

	// Feeding the input removes the diagnostic.
	connected := `
instance src : pcl.source(rate = 1.0, count = 5);
instance r   : ana.relay();
instance snk : pcl.sink(keep = true);
src.out -> r.in;
r.out -> snk.in;
`
	if r := lint(t, connected); len(findCode(r, "LSE007")) != 0 {
		t.Fatalf("connected relay tripped LSE007: %v", codes(r))
	}
}

func TestReportOrderingAndRenderers(t *testing.T) {
	r := &analysis.Report{}
	r.Add(analysis.Diagnostic{Code: "LSE006", Severity: analysis.Warning, File: "b.lss", Line: 2, Where: "x", Message: "m1"})
	r.Add(analysis.Diagnostic{Code: "LSE001", Severity: analysis.Info, File: "a.lss", Line: 9, Where: "y", Message: "m2"})
	r.Add(analysis.Diagnostic{Code: "LSE002", Severity: analysis.Error, File: "a.lss", Line: 9, Where: "z", Message: "m3"})
	r.Sort()
	if got := codes(r); got[0] != "LSE001" || got[1] != "LSE002" || got[2] != "LSE006" {
		t.Fatalf("sort order wrong: %v", got)
	}
	if max, ok := r.Max(); !ok || max != analysis.Error {
		t.Errorf("Max = %v,%v", max, ok)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	txt := sb.String()
	if !strings.Contains(txt, "a.lss:9: LSE001[info] y: m2") ||
		!strings.Contains(txt, "3 diagnostics: 1 error(s), 1 warning(s), 1 info") {
		t.Errorf("text rendering:\n%s", txt)
	}
	sb.Reset()
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Diagnostics []map[string]any `json:"diagnostics"`
		Errors      int              `json:"errors"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, sb.String())
	}
	if len(decoded.Diagnostics) != 3 || decoded.Errors != 1 {
		t.Errorf("JSON payload wrong: %s", sb.String())
	}
	if sev := decoded.Diagnostics[0]["severity"]; sev != "info" {
		t.Errorf("severity should marshal as its name, got %v", sev)
	}
}

// TestDotAndLSE001AgreeOnUnconnectedPorts: the drawing's dangling stubs
// and the LSE001 diagnostics name the same ports, in the same order.
func TestDotAndLSE001AgreeOnUnconnectedPorts(t *testing.T) {
	src := `
instance src : pcl.source(count = 5);
instance q   : pcl.queue(capacity = 2);
instance snk : pcl.sink();
src.out -> q.in;
q.out -> snk.in;
instance lone : pcl.queue(capacity = 1);
`
	sim, err := lss.Load(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	var lse001 []string
	for _, d := range findCode(analysis.AnalyzeSim(sim), "LSE001") {
		lse001 = append(lse001, d.Where)
	}
	var sb strings.Builder
	if err := obs.WriteDot(&sb, sim); err != nil {
		t.Fatal(err)
	}
	var stubs []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.Contains(line, "style=dashed") {
			continue
		}
		// "__danglingN" -> "inst" [label="port", ...] or the reverse.
		f := strings.Split(line, `"`)
		inst := f[3]
		if strings.HasPrefix(inst, "__dangling") {
			inst = f[1]
		}
		stubs = append(stubs, inst+"."+f[5])
	}
	if want := []string{"lone.in", "lone.out"}; !slices.Equal(lse001, want) || !slices.Equal(stubs, want) {
		t.Fatalf("LSE001 reports %v and the drawing stubs %v, want both %v", lse001, stubs, want)
	}
}

func text(r *analysis.Report) string {
	var sb strings.Builder
	r.WriteText(&sb)
	return sb.String()
}
