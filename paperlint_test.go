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

// TestPaperModelsLint pins what the netlist lint passes report on the
// paper's models: Figures 2(a)–(d) in the differential suite's
// configurations plus a 64-node sensor network, the orion sweep's
// compiled 8x8 mesh, and every shipped spec. The counts are per code;
// a pass that starts or stops firing on a paper model shows up here.
func TestPaperModelsLint(t *testing.T) {
	type row struct {
		name  string
		build func(t *testing.T) *core.Sim
		want  map[string]int
	}
	// LSE002 reads the dependency graph, which cuts every MarkSequential
	// instance (a queue, a delay, a link, a directory controller) into a
	// node per port.
	want := map[string]map[string]int{
		// No cycle: the gp{i} <-> l1_{i} loops and the controller <->
		// network loops are cut at the marked directory controllers.
		"fig2a-cmp": {"LSE004": 64},
		// No cycle, as in Fig 2a: every loop through a grid node's
		// controllers is cut at their marks.
		"fig2c-grid": {"LSE004": 192},
		// The backbone mesh's loops all close through marked queues and links.
		"fig2d-sos": {"LSE001": 3, "LSE003": 2, "LSE006": 3},
		// The mesh's loops all close through marked queues and links.
		"sweep":    {},
		"mesh.lss": {},
	}
	var rows []row
	for _, ps := range paperSystems {
		rows = append(rows, row{ps.name, func(t *testing.T) *core.Sim {
			return buildSystem(t, ps.seed, ps.assemble)
		}, want[ps.name]})
	}
	rows = append(rows,
		row{"fig2b-sensornet64", func(t *testing.T) *core.Sim {
			return buildSystem(t, 5, func(b *core.Builder) error {
				_, err := systems.BuildSensorNet(b, "sn", 64, 20, 40)
				return err
			})
		}, nil},
		row{"sweep", func(t *testing.T) *core.Sim {
			sp, err := ccl.NewSweepProgram(ccl.SweepCfg{W: 8, H: 8, Pattern: "uniform", Seed: 1000, Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := sp.Program().NewSim()
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}, want["sweep"]},
	)
	specs, err := filepath.Glob("specs/*.lss")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	for _, path := range specs {
		rows = append(rows, row{filepath.Base(path), func(t *testing.T) *core.Sim {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := lse.LoadLSS(string(src), lse.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}, want[filepath.Base(path)]})
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			sim := r.build(t)
			defer sim.Close()
			rep := analysis.AnalyzeSim(sim)
			got := map[string]int{}
			for _, d := range rep.Diags {
				got[d.Code]++
			}
			if fmt.Sprint(got) != fmt.Sprint(r.want) {
				t.Errorf("per-code counts = %v, want %v", got, r.want)
			}
			if r.name != "fig2d-sos" {
				return
			}
			// The SoS backbone's two unfed buffers are the ports the
			// retired dataflow codes flagged; LSE001 names the port and
			// LSE006 the export left bound to nothing.
			for _, where := range []string{"sos/backbone/r0_0/buf0.in", "sos/backbone/r1_1/buf0.in"} {
				if !reported(rep, "LSE001", where) {
					t.Errorf("LSE001 does not report %s", where)
				}
			}
			for _, comp := range []string{"sos/backbone/r0_0", "sos/backbone/r1_1"} {
				if !reported(rep, "LSE006", comp) {
					t.Errorf("LSE006 does not report %s", comp)
				}
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
