package liberty_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/systems"
	"liberty/lse"
)

// benchCMPs are Figure 2(a) and 2(c) at the sizes the cmp_coherence
// benchmark runs: a 4x4 mesh with 200 references per core and a 4x2
// torus with 400.
var benchCMPs = []struct {
	name string
	cfg  systems.CMPCfg
}{
	{"fig2a", systems.CMPCfg{W: 4, H: 4, RefsPer: 200, Think: 2, SharedPct: 30, Seed: 1}},
	{"fig2c", systems.CMPCfg{W: 4, H: 2, RefsPer: 400, Think: 2, SharedPct: 30, Torus: true, Seed: 1}},
}

// runCMP builds one CMP, runs it until every core has completed its
// references, and returns its stats JSON without the engine-only
// schedule key, and the cycles it took.
func runCMP(t *testing.T, cfg systems.CMPCfg, opts ...lse.BuildOption) (map[string]any, uint64) {
	t.Helper()
	b := core.NewBuilder(append(opts, lse.WithSeed(cfg.Seed))...)
	cmp, err := systems.BuildCMP(b, "cmp", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	done, err := sim.RunUntil(func(*core.Sim) bool { return cmp.Done() }, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("%d references completed after %d cycles", cmp.Completed(), sim.Now())
	}
	var js bytes.Buffer
	if err := lse.WriteStatsJSON(&js, sim); err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal(js.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	delete(stats, "schedule")
	return stats, sim.Now()
}

// TestCMPBenchSizesAgree runs the benchmark's CMPs to completion under
// the engine in activity-check mode and under the reference, and requires
// equal stats: every directory-controller mark the plan cuts at is held
// to account on the models the cmp_coherence claim is measured on.
func TestCMPBenchSizesAgree(t *testing.T) {
	if raceEnabled {
		t.Skip("full-size CMP runs are too slow under the race detector")
	}
	for _, m := range benchCMPs {
		got, cycles := runCMP(t, m.cfg, lse.WithActivityCheck())
		want, _ := runCMP(t, m.cfg, lse.WithScheduler(lse.SchedulerSequential))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine (check mode) and reference stats differ after %d cycles", m.name, cycles)
		}
	}
}
