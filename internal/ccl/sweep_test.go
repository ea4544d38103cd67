package ccl

import (
	"context"
	"strings"
	"testing"

	core "liberty/internal/core"
)

// TestFirstSessionIsTheCompiledNetlist: MeasurePoint is NewSweepProgram
// plus one MeasureRate, and that one session is the netlist the compile
// assembled — the recipe ran once. The inventory sp.nw points into it.
func TestFirstSessionIsTheCompiledNetlist(t *testing.T) {
	var sims []*core.Sim
	sp, err := NewSweepProgram(SweepCfg{W: 2, H: 2, Cycles: 50, Seed: 1,
		OnSim: func(s *core.Sim) { sims = append(sims, s) }})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := sp.MeasureRate(context.Background(), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	q := sp.nw.Routers[0].InQ[0]
	if got := sims[0].Instance(q.Name()); got != core.Instance(q) {
		t.Fatal("the first measured point re-assembled the network instead of taking the compiled one")
	}
	if got := sims[1].Instance(q.Name()); got == nil || got == core.Instance(q) {
		t.Fatalf("the second measured point got instance %v, want a fresh stamp's own", got)
	}
}

// TestSweepParallelMatchesSerial: with two workers one point runs on the
// session the inventory belongs to while the others read names and
// capacities through it; every point must still equal the serial curve's
// (and the race detector must stay quiet).
func TestSweepParallelMatchesSerial(t *testing.T) {
	rates := []float64{0.05, 0.2, 0.6}
	cfg := SweepCfg{W: 3, H: 3, Cycles: 300, Warmup: 50, Seed: 2, Parallel: 1}
	serial, err := RunSweepContext(context.Background(), cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 2
	parallel, err := RunSweepContext(context.Background(), cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if parallel[i] != serial[i] {
			t.Errorf("rate %g: Parallel 2 measured %+v, Parallel 1 %+v", rates[i], parallel[i], serial[i])
		}
	}
}

// TestPatternNamesBothCallers: the ccl.pktsource template and the sweep
// read pattern names through the one patternByName, so every name builds
// through both, and both refuse a non-square transpose and an unknown name
// with the same detail.
func TestPatternNamesBothCallers(t *testing.T) {
	tpl, ok := core.DefaultRegistry.Lookup("ccl.pktsource")
	if !ok {
		t.Fatal("ccl.pktsource is not registered")
	}
	template := func(name string, nodes int) error {
		_, err := tpl.Build(core.NewBuilder(), "src", core.Params{"nodes": nodes, "pattern": name})
		return err
	}
	sweep := func(name string, w int) error {
		_, err := NewSweepProgram(SweepCfg{W: w, H: 2, Cycles: 10, Pattern: name})
		return err
	}
	for _, name := range []string{"uniform", "transpose", "complement", "hotspot", "neighbor", "fixed"} {
		if err := template(name, 4); err != nil {
			t.Errorf("template, pattern %q: %v", name, err)
		}
		if err := sweep(name, 2); err != nil {
			t.Errorf("sweep, pattern %q: %v", name, err)
		}
	}
	for _, tc := range []struct{ name, want string }{
		{"transpose", "transpose needs a square node count"},
		{"zigzag", `unknown pattern "zigzag"`},
	} {
		if err := template(tc.name, 6); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("template, pattern %q on 6 nodes: %v, want %q", tc.name, err, tc.want)
		}
		if err := sweep(tc.name, 3); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("sweep, pattern %q on 3x2: %v, want %q", tc.name, err, tc.want)
		}
	}
}
