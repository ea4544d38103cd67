package liberty_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"liberty/internal/analysis"
	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/systems"
	"liberty/lse"
)

// lintModel is one paper model the lint pins cover: build constructs it
// with extra build options, and want is its per-code diagnostic count.
type lintModel struct {
	name  string
	build func(t *testing.T, opts ...core.BuildOption) (*core.Sim, error)
	want  map[string]int
}

// paperLintModels are Figures 2(a)–(d) in the differential suite's
// configurations, the benchmark's 4×4 Fig 2a and 4×2 torus Fig 2c, a
// 64-node sensor network, the orion sweep's compiled 8x8 mesh, and
// every shipped spec.
func paperLintModels(t *testing.T) []lintModel {
	// Every count is empty but Fig 2d's. LSE002 reads the dependency
	// graph, which cuts every MarkSequential instance (a queue, a delay,
	// a link, a directory controller) into a node per port, so the CMP's
	// gp{i} <-> l1_{i} and controller <-> network loops and the meshes'
	// loops are no cycles.
	want := map[string]map[string]int{
		// Info only: the backbone's corner routers leave their unused
		// local ports unconnected (r0_0/buf0.in, r1_1/buf0.in and
		// r1_1/arb0.out), which LSE001 reports.
		"fig2d-sos": {"LSE001": 3},
	}
	system := func(name string, seed int64, assemble func(*core.Builder) error) lintModel {
		return lintModel{name, func(t *testing.T, opts ...core.BuildOption) (*core.Sim, error) {
			b := core.NewBuilder(append([]core.BuildOption{lse.WithSeed(seed)}, opts...)...)
			if err := assemble(b); err != nil {
				t.Fatal(err)
			}
			return b.Build()
		}, want[name]}
	}
	var models []lintModel
	for _, ps := range paperSystems {
		models = append(models, system(ps.name, ps.seed, ps.assemble))
	}
	models = append(models,
		system("fig2a-cmp-4x4", 1, func(b *core.Builder) error {
			_, err := systems.BuildCMP(b, "fig2a", systems.CMPCfg{W: 4, H: 4, RefsPer: 200, Think: 2, SharedPct: 30})
			return err
		}),
		system("fig2c-torus-4x2", 1, func(b *core.Builder) error {
			_, err := systems.BuildCMP(b, "fig2c", systems.CMPCfg{W: 4, H: 2, RefsPer: 400, Think: 2, SharedPct: 30, Torus: true})
			return err
		}),
		system("fig2b-sensornet64", 5, func(b *core.Builder) error {
			_, err := systems.BuildSensorNet(b, "sn", 64, 20, 40)
			return err
		}),
		// NewSweepProgram compiles with its own build options, so opts
		// do not reach it: TestStrictAnalysisAcceptsPaperModels checks
		// this session with the strict predicate directly.
		lintModel{"sweep", func(t *testing.T, _ ...core.BuildOption) (*core.Sim, error) {
			sp, err := ccl.NewSweepProgram(ccl.SweepCfg{W: 8, H: 8, Pattern: "uniform", Seed: 1000, Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			return sp.Program().NewSim()
		}, want["sweep"]},
	)
	specs, err := filepath.Glob("specs/*.lss")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	for _, path := range specs {
		name := filepath.Base(path)
		models = append(models, lintModel{name, func(t *testing.T, opts ...core.BuildOption) (*core.Sim, error) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return lse.LoadLSS(string(src), append([]core.BuildOption{lse.WithSeed(1)}, opts...)...)
		}, want[name]})
	}
	return models
}

// TestPaperModelsLint pins what the netlist lint passes report on the
// paper's models. The counts are per code; a pass that starts or stops
// firing on a paper model shows up here.
func TestPaperModelsLint(t *testing.T) {
	for _, m := range paperLintModels(t) {
		t.Run(m.name, func(t *testing.T) {
			sim, err := m.build(t)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			rep := analysis.AnalyzeSim(sim)
			got := map[string]int{}
			for _, d := range rep.Diags {
				got[d.Code]++
			}
			if fmt.Sprint(got) != fmt.Sprint(m.want) {
				t.Errorf("per-code counts = %v, want %v", got, m.want)
			}
			if m.name != "fig2d-sos" {
				return
			}
			for _, where := range []string{"sos/backbone/r0_0/buf0.in", "sos/backbone/r1_1/buf0.in", "sos/backbone/r1_1/arb0.out"} {
				if !reported(rep, "LSE001", where) {
					t.Errorf("LSE001 does not report %s", where)
				}
			}
		})
	}
}

// TestStrictAnalysisAcceptsPaperModels: every paper model builds under
// lse.WithStrictAnalysis(). A lint warning on one of them is a false
// finding, since each runs as the paper describes it.
func TestStrictAnalysisAcceptsPaperModels(t *testing.T) {
	for _, m := range paperLintModels(t) {
		t.Run(m.name, func(t *testing.T) {
			sim, err := m.build(t, lse.WithStrictAnalysis())
			if err != nil {
				t.Fatalf("strict build: %v", err)
			}
			defer sim.Close()
			if n := analysis.AnalyzeSim(sim).CountAtLeast(analysis.Warning); n > 0 {
				t.Errorf("%d diagnostic(s) at or above warning", n)
			}
		})
	}
}

func reported(rep *analysis.Report, code, where string) bool {
	for _, d := range rep.Diags {
		if d.Code == code && d.Where == where {
			return true
		}
	}
	return false
}
