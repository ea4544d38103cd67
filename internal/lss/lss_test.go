package lss_test

import (
	"strings"
	"testing"

	_ "liberty/internal/ccl" // register templates
	core "liberty/internal/core"
	"liberty/internal/lss"
	"liberty/internal/pcl"
)

func buildAndRun(t *testing.T, src string, cycles uint64) *core.Sim {
	t.Helper()
	sim, err := lss.Load(src, nil, core.WithSeed(1))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := sim.Run(cycles); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return sim
}

func TestQuickstartSpec(t *testing.T) {
	src := `
# quickstart: source -> queue -> sink
instance src : pcl.source(rate = 1.0, count = 20);
instance q   : pcl.queue(capacity = 4);
instance snk : pcl.sink(keep = true);
src.out -> q.in;
q.out -> snk.in;
`
	sim := buildAndRun(t, src, 50)
	if got := sim.Stats().CounterValue("snk.received"); got != 20 {
		t.Fatalf("sink received %d, want 20", got)
	}
}

func TestHierarchicalModuleAndFor(t *testing.T) {
	src := `
module pipe(depth = 2) {
    instance a : pcl.queue(capacity = depth);
    instance b : pcl.queue(capacity = depth);
    a.out -> b.in;
    export in  = a.in;
    export out = b.out;
}

let n = 3;
instance src  : pcl.source(count = 10);
instance p[n] : pipe(depth = 8);
instance snk  : pcl.sink();
src.out -> p[0].in;
for i in 0 .. n-2 {
    p[i].out -> p[i+1].in;
}
p[n-1].out -> snk.in;
`
	sim := buildAndRun(t, src, 100)
	if got := sim.Stats().CounterValue("snk.received"); got != 10 {
		t.Fatalf("sink received %d through 3 hierarchical pipes, want 10", got)
	}
	// Hierarchical names flattened.
	if sim.Instance("p[1]/a") == nil {
		t.Fatal("hierarchical child instance p[1]/a missing")
	}
}

func TestIfAndExpressions(t *testing.T) {
	src := `
let big = 2 * 3 + 1;
if big >= 7 {
    instance src : pcl.source(count = big - 2);
} else {
    instance src : pcl.source(count = 1);
}
instance snk : pcl.sink();
src.out -> snk.in;
`
	sim := buildAndRun(t, src, 30)
	if got := sim.Stats().CounterValue("snk.received"); got != 5 {
		t.Fatalf("received %d, want 5 (= 2*3+1-2)", got)
	}
}

func TestIndexedPortsAddressCompositeFamilies(t *testing.T) {
	// A 4-port crossbar has ports in0..in3/out0..out3; LSS reaches them
	// as xb.in[i]. Route integers by value to two sinks via a registered
	// function parameter.
	core.RegisterFn("test.mod2", pcl.RouteFn(func(v any) int { return v.(int) % 2 }))
	src := `
instance src : pcl.source(count = 8);
instance rt  : pcl.route(route = "test.mod2");
instance s0  : pcl.sink();
instance s1  : pcl.sink();
src.out -> rt.in;
rt.out -> s0.in;
rt.out -> s1.in;
`
	sim := buildAndRun(t, src, 40)
	if a, b := sim.Stats().CounterValue("s0.received"), sim.Stats().CounterValue("s1.received"); a != 4 || b != 4 {
		t.Fatalf("split %d/%d, want 4/4", a, b)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":            "instance ;",
		"missing arrow":      "a.out b.in;",
		"unterminated block": "module m {",
		"bad char":           "instance a : pcl.sink(); $",
		"unterminated str":   `let s = "abc;`,
	}
	for name, src := range cases {
		if _, err := lss.Parse(src); err == nil {
			t.Errorf("%s: parser accepted %q", name, src)
		}
	}
}

func TestElabErrors(t *testing.T) {
	cases := map[string]string{
		"unknown template": "instance a : no.such.thing;",
		"unknown instance": "a.out -> b.in;",
		"dup instance":     "instance a : pcl.sink();\ninstance a : pcl.sink();",
		"array no index": `
instance a[2] : pcl.sink();
instance s : pcl.source(count = 1);
s.out -> a.in;`,
		"index range": `
instance a[2] : pcl.sink();
instance s : pcl.source(count = 1);
s.out -> a[5].in;`,
		"missing module param": `
module m(x) { instance q : pcl.queue(capacity = x); export in = q.in; export out = q.out; }
instance i : m();`,
		"unknown module param": `
module m() { instance q : pcl.queue(); export in = q.in; export out = q.out; }
instance i : m(bogus = 1);`,
		"export outside module": "instance q : pcl.queue();\nexport in = q.in;",
		"undefined name":        "instance s : pcl.source(count = nope);",
		"module isolation": `
instance q : pcl.queue();
module m() { q.out -> q.in; }
instance i : m();`,
		"divide by zero": "let x = 1 / 0;",
	}
	for name, src := range cases {
		if _, err := lss.Load(src, nil); err == nil {
			t.Errorf("%s: elaborator accepted %q", name, src)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	src := "instance a : pcl.sink();\n\n\nb.out -> a.in;\n"
	_, err := lss.Load(src, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "lss:4") {
		t.Fatalf("error %q should carry line 4", err)
	}
}

func TestCommentsAndLiterals(t *testing.T) {
	src := `
// line comment
# hash comment
/* block
   comment */
let f = 0.5;        // float
let s = "a" + "b";  // concat
let b = true;
if s == "ab" {
    instance src : pcl.source(rate = f, count = 4);
    instance snk : pcl.sink();
    src.out -> snk.in;
}
`
	sim := buildAndRun(t, src, 200)
	if got := sim.Stats().CounterValue("snk.received"); got != 4 {
		t.Fatalf("received %d, want 4", got)
	}
}

func TestBuildWithOverrides(t *testing.T) {
	src := `
let n = 2;
instance src : pcl.source(count = n);
instance snk : pcl.sink();
src.out -> snk.in;
`
	// Default: 2 items.
	sim, err := lss.Load(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(20)
	if got := sim.Stats().CounterValue("snk.received"); got != 2 {
		t.Fatalf("default run received %d, want 2", got)
	}
	// Overridden: 7 items (the -D path).
	sim2, err := lss.Load(src, map[string]any{"n": int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	sim2.Run(20)
	if got := sim2.Stats().CounterValue("snk.received"); got != 7 {
		t.Fatalf("overridden run received %d, want 7", got)
	}
}

// TestGoTypedDefines: defines arrive from Go callers as whatever numeric
// type was natural to write. Each integer and float kind must do
// arithmetic exactly like the equivalent literal; anything the evaluator
// has no kind for is refused by name, not by a later operator error.
func TestGoTypedDefines(t *testing.T) {
	const src = `
let n = 1;
let r = 1.0;
instance src : pcl.source(count = n * 2 + 1, rate = r / 1.0);
instance snk : pcl.sink();
src.out -> snk.in;
`
	type named int
	for _, v := range []any{
		int(3), int8(3), int16(3), int32(3), int64(3), named(3),
		uint(3), uint8(3), uint16(3), uint32(3), uint64(3), uintptr(3),
	} {
		sim, err := lss.Load(src, map[string]any{"n": v})
		if err != nil {
			t.Fatalf("n = %T: %v", v, err)
		}
		sim.Run(20)
		if got := sim.Stats().CounterValue("snk.received"); got != 7 {
			t.Fatalf("n = %T(3): received %d, want 7", v, got)
		}
	}
	for _, v := range []any{float32(1), float64(1), int(1)} {
		if _, err := lss.Load(src, map[string]any{"r": v}); err != nil {
			t.Fatalf("r = %T: %v", v, err)
		}
	}
	for _, v := range []any{uint64(1) << 63, []int{1}, nil, struct{}{}, complex(1, 0)} {
		_, err := lss.Load(src, map[string]any{"n": v})
		if err == nil || !strings.Contains(err.Error(), `define "n"`) {
			t.Fatalf("n = %T: error %v does not name the define", v, err)
		}
	}
}
