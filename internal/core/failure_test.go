package core_test

import (
	"testing"

	core "liberty/internal/core"
)

// cyclic is a module whose data output mirrors its data input — two of
// them back-to-back form a genuine combinational dependency cycle that
// only the engine's cycle-breaker can resolve.
type cyclic struct {
	core.Base
	In  *core.Port
	Out *core.Port
}

func newCyclic(name string) *cyclic {
	c := &cyclic{}
	c.Init(name, c)
	c.In = c.AddInPort("in", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	c.Out = c.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	c.OnReact(func() {
		if c.In.DataStatus(0).Known() && c.Out.DataStatus(0) == core.Unknown {
			if c.In.DataStatus(0) == core.Yes {
				c.Out.Send(0, c.In.Data(0))
			} else {
				c.Out.SendNothing(0)
			}
		}
	})
	return c
}

func TestCombinationalCycleIsBrokenDeterministically(t *testing.T) {
	a := newCyclic("a")
	z := newCyclic("z")
	b := core.NewBuilder()
	b.Add(a)
	b.Add(z)
	b.Connect(a, "out", z, "in")
	b.Connect(z, "out", a, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Neither module can make the first move; the default rounds must
	// break the cycle (pessimistically, to Nothing) rather than hang or
	// error. Several cycles must behave identically.
	for i := 0; i < 5; i++ {
		if err := sim.Step(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	// The cycle resolved pessimistically: no transfers occurred.
	for _, c := range sim.Conns() {
		p, i := c.Dst()
		if p.Transferred(i) {
			t.Fatalf("connection %v transferred despite the combinational cycle", c)
		}
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("duplicate port name accepted")
		}
	}()
	s := newSource("s")
	s.AddOutPort("out")
}

func TestCompositeDuplicateExportPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("duplicate export accepted")
		}
	}()
	c := &core.Composite{}
	c.Init("c", c)
	s := newSource("s")
	c.Export("p", s.PortByName("out"))
	c.Export("p", s.PortByName("out"))
}

func TestInitTwicePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("double Init accepted")
		}
	}()
	s := newSource("s")
	s.Init("again", s)
}

func TestParamsTypeErrors(t *testing.T) {
	p := core.Params{"n": "not-an-int", "b": 3, "s": 1, "f": "x", "l": 5}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected a ParamError panic", name)
			}
		}()
		fn()
	}
	expectPanic("Int", func() { p.Int("n", 0) })
	expectPanic("Bool", func() { p.Bool("b", false) })
	expectPanic("Str", func() { p.Str("s", "") })
	expectPanic("Float", func() { p.Float("f", 0) })
	expectPanic("List", func() { p.List("l") })
	// Defaults apply and names sort.
	if p.Int("absent", 7) != 7 {
		t.Error("default not applied")
	}
	if got := (core.Params{"b": 3, "a": 1}).Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("names wrong: %v", got)
	}
}

func TestRegistryErrors(t *testing.T) {
	r := core.NewRegistry()
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("nil template", func() { r.Register(nil) })
	expectPanic("empty name", func() { r.Register(&core.Template{Build: nil}) })
	tpl := &core.Template{Name: "x", Build: func(b *core.Builder, n string, p core.Params) (core.Instance, error) {
		return nil, nil
	}}
	r.Register(tpl)
	expectPanic("duplicate", func() { r.Register(tpl) })
	if _, ok := r.Lookup("x"); !ok {
		t.Error("registered template not found")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "x" {
		t.Errorf("names: %v", names)
	}
}

func TestBuilderReuseRejected(t *testing.T) {
	b := core.NewBuilder()
	src := newSource("src")
	snk := newSink("snk", nil)
	b.Add(src)
	b.Add(snk)
	b.Connect(src, "out", snk, "in")
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build on the same builder accepted")
	}
}

// TestConnectPortsErrorPositions pins the four connect failures' messages:
// the "src -> dst" position is built only on these branches.
func TestConnectPortsErrorPositions(t *testing.T) {
	a, y, z := newCyclic("a"), newCyclic("y"), newCyclic("z") // every port MaxWidth 1
	b := core.NewBuilder()
	if err := b.ConnectPorts(a.Out, z.In); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sp, dp *core.Port
		want   string
	}{
		{a.In, z.In, "liberty: build error: connect at a.in -> z.in: source must be an Out port"},
		{y.Out, z.Out, "liberty: build error: connect at y.out -> z.out: destination must be an In port"},
		{a.Out, y.In, "liberty: build error: connect at a.out -> y.in: source port width limited to 1"},
		{y.Out, z.In, "liberty: build error: connect at y.out -> z.in: destination port width limited to 1"},
	} {
		if err := b.ConnectPorts(tc.sp, tc.dp); err == nil || err.Error() != tc.want {
			t.Errorf("ConnectPorts error = %v\nwant %s", err, tc.want)
		}
	}
}
