package obs_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/obs"
	"liberty/internal/pcl"
	"liberty/internal/systems"
	"liberty/lse"
)

// oracleJSON is the statistics document as encoding/json writes the
// Snapshot schema.
func oracleJSON(snap obs.Snapshot) ([]byte, error) {
	b, err := json.MarshalIndent(snap, "", "  ")
	return append(b, '\n'), err
}

// oracleCSV is the statistics document as encoding/csv writes the
// Snapshot's rows, in the CSV's order.
func oracleCSV(snap obs.Snapshot) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	row := func(kind, name, field string, v any) {
		var s string
		switch x := v.(type) {
		case int64:
			s = strconv.FormatInt(x, 10)
		case uint64:
			s = strconv.FormatUint(x, 10)
		case float64:
			s = strconv.FormatFloat(x, 'g', -1, 64)
		case string:
			s = x
		}
		cw.Write([]string{kind, name, field, s})
	}
	sorted := func(m map[string]bool) []string {
		var names []string
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		return names
	}
	row("sim", "", "cycles", snap.Cycles)
	row("sim", "", "seed", snap.Seed)
	row("sim", "", "instances", int64(snap.Instances))
	row("sim", "", "conns", int64(snap.Conns))
	row("sim", "", "spill_hits", snap.SpillHits)
	counters, hists := map[string]bool{}, map[string]bool{}
	for n := range snap.Counters {
		counters[n] = true
	}
	for n := range snap.Histograms {
		hists[n] = true
	}
	for _, n := range sorted(counters) {
		row("counter", n, "value", snap.Counters[n])
	}
	for _, n := range sorted(hists) {
		h := snap.Histograms[n]
		for _, f := range []struct {
			name string
			v    any
		}{{"count", h.Count}, {"sum", h.Sum}, {"mean", h.Mean}, {"min", h.Min}, {"max", h.Max}, {"p50", h.P50}, {"p95", h.P95}, {"p99", h.P99}} {
			row("histogram", n, f.name, f.v)
		}
	}
	if sd := snap.Schedule; sd != nil {
		for _, f := range []struct {
			name string
			v    int
		}{
			{"modules", sd.Modules}, {"sccs", sd.SCCs}, {"cyclic_sccs", sd.CyclicSCCs}, {"largest_scc", sd.LargestSCC},
			{"forward_levels", sd.ForwardLevels}, {"ack_levels", sd.AckLevels}, {"sweep_conns", sd.SweepConns},
			{"residue_conns", sd.ResidueConns}, {"ack_sweep_conns", sd.AckSweepConns}, {"ack_residue_conns", sd.AckResidueConns},
			{"active_insts", sd.ActiveInsts}, {"gated_insts", sd.GatedInsts}, {"always_active", sd.AlwaysActive},
			{"clusters", sd.Clusters}, {"closable_clusters", sd.ClosableClusters},
		} {
			row("schedule", "", f.name, int64(f.v))
		}
		for i, site := range sd.BreakSites {
			row("schedule", strconv.Itoa(i), "break_site", site)
		}
	}
	if sc := snap.Scheduler; sc != nil {
		row("scheduler", "", "cycles", sc.Cycles)
		row("scheduler", "", "wakes", sc.Wakes)
		row("scheduler", "", "reacts", sc.Reacts)
		row("scheduler", "", "fixed_point_iters", sc.FixedPointIters)
		row("scheduler", "", "active_insts", sc.ActiveInsts)
		row("scheduler", "", "skipped_wakes", sc.SkippedWakes)
		row("scheduler", "", "closed_clusters", sc.ClosedClusters)
		row("scheduler", "", "closed_conn_share", sc.ClosedConnShare)
		for _, k := range []string{"data", "enable", "ack"} {
			row("scheduler", k, "default_fallbacks", sc.DefaultFallbacks[k])
			row("scheduler", k, "cycle_breaks", sc.CycleBreaks[k])
		}
	}
	for _, inst := range snap.Hot {
		row("instance", inst.Name, "reacts", inst.Reacts)
		row("instance", inst.Name, "react_time_ns", inst.ReactTimeNs)
	}
	cw.Flush()
	return buf.Bytes()
}

// checkDocument holds both writers to the oracles on the session as it
// stands.
func checkDocument(t *testing.T, sim *core.Sim) {
	t.Helper()
	snap := obs.TakeSnapshot(sim)
	want, err := oracleJSON(snap)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	var js, cv bytes.Buffer
	if err := obs.WriteJSON(&js, sim); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js.Bytes(), want) {
		t.Fatalf("cycle %d: WriteJSON differs from encoding/json at byte %d:\n%s", sim.Now(), firstDiff(js.Bytes(), want), diffContext(js.Bytes(), want))
	}
	if err := obs.WriteCSV(&cv, sim); err != nil {
		t.Fatal(err)
	}
	if want := oracleCSV(snap); !bytes.Equal(cv.Bytes(), want) {
		t.Fatalf("cycle %d: WriteCSV differs from encoding/csv at byte %d:\n%s", sim.Now(), firstDiff(cv.Bytes(), want), diffContext(cv.Bytes(), want))
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func diffContext(got, want []byte) string {
	i := firstDiff(got, want)
	clip := func(b []byte) string { return string(b[max(0, i-80):min(len(b), i+80)]) }
	return fmt.Sprintf("got:  …%s…\nwant: …%s…", clip(got), clip(want))
}

// sweep8x8 assembles the 8×8 sweep's netlist (ccl.SweepProgram's): the
// mesh with one uniform source at rate 0.3 and one sink per node.
func sweep8x8(b *core.Builder) error {
	nw, err := ccl.BuildMesh(b, "net", ccl.MeshCfg{W: 8, H: 8})
	if err != nil {
		return err
	}
	for i := 0; i < nw.Nodes; i++ {
		src, err := pcl.NewSource(fmt.Sprintf("src%d", i), core.Params{
			"rate": 0.3,
			"gen":  ccl.PacketGen(i, nw.Nodes, ccl.UniformPattern, ccl.FixedSize(4)),
		})
		if err != nil {
			return err
		}
		snk, err := pcl.NewSink(fmt.Sprintf("snk%d", i), nil)
		if err != nil {
			return err
		}
		b.Add(src)
		b.Add(snk)
		if err := nw.ConnectSource(b, i, src, "out"); err != nil {
			return err
		}
		if err := nw.ConnectSink(b, i, snk, "in"); err != nil {
			return err
		}
	}
	return nil
}

// TestWriteJSONEqualsSnapshot holds the writers to the schema: on every
// spec, the Figure 2(a)-(d) systems and the 8×8 sweep session, at cycles
// 0, 1 and 500, with and without metrics, under the engine and the
// reference, WriteJSON's bytes are encoding/json's of TakeSnapshot and
// WriteCSV's are encoding/csv's of its rows.
func TestWriteJSONEqualsSnapshot(t *testing.T) {
	type model struct {
		name    string
		compile func(opts ...core.BuildOption) (*core.Program, error)
	}
	var models []model
	paths, err := filepath.Glob("../../specs/*.lss")
	if err != nil || len(paths) == 0 {
		t.Fatalf("specs: %v (%d found)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{filepath.Base(path), func(opts ...core.BuildOption) (*core.Program, error) {
			return lse.CompileLSSWith(string(src), nil, opts...)
		}})
	}
	recipe := func(name string, assemble func(*core.Builder) error) model {
		return model{name, func(opts ...core.BuildOption) (*core.Program, error) { return core.Compile(assemble, opts...) }}
	}
	models = append(models,
		recipe("fig2a-cmp", func(b *core.Builder) error {
			_, err := systems.BuildCMP(b, "cmp", systems.CMPCfg{W: 2, H: 2, RefsPer: 60, Seed: 1})
			return err
		}),
		recipe("fig2b-sensornet", func(b *core.Builder) error {
			_, err := systems.BuildSensorNet(b, "sn", 3, 20, 40)
			return err
		}),
		recipe("fig2c-grid", func(b *core.Builder) error {
			_, err := systems.BuildCMP(b, "grid", systems.CMPCfg{W: 4, H: 2, Torus: true, RefsPer: 40, Seed: 2})
			return err
		}),
		recipe("fig2d-sos", func(b *core.Builder) error {
			_, err := systems.BuildSoS(b, "sos", systems.SoSCfg{Clusters: 2, SensorsPer: 2, SamplesPer: 16, Threshold: 10, Batch: 4})
			return err
		}),
		recipe("sweep-8x8", sweep8x8),
	)
	for _, m := range models {
		for _, sched := range []core.SchedulerKind{core.SchedulerSparse, core.SchedulerSequential} {
			for _, metrics := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/metrics=%v", m.name, sched, metrics), func(t *testing.T) {
					opts := []core.BuildOption{core.WithSeed(1), core.WithScheduler(sched)}
					if metrics {
						opts = append(opts, core.WithMetrics())
					}
					prog, err := m.compile(opts...)
					if err != nil {
						t.Fatal(err)
					}
					sim, err := prog.NewSim()
					if err != nil {
						t.Fatal(err)
					}
					defer sim.Close()
					for _, to := range []uint64{0, 1, 500} {
						if err := sim.Run(to - sim.Now()); err != nil {
							t.Fatal(err)
						}
						checkDocument(t, sim)
					}
				})
			}
		}
	}
}

// statsInst is an instance that only declares statistics: a counter and
// a histogram under one name, and a histogram under another.
type statsInst struct{ core.Base }

func newStatsInst(name, stat1, stat2 string, v int64, samples []float64) *statsInst {
	m := &statsInst{}
	m.Init(name, m)
	m.Counter(stat1).Add(v)
	h1, h2 := m.Histogram(stat1), m.Histogram(stat2)
	for i, x := range samples {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			[]*core.Histogram{h1, h2}[i%2].Observe(x)
		}
	}
	return m
}

// TestHistogramOverflowIsRefused: two finite samples whose sum overflows
// make both writers refuse the document with one error naming the
// histogram and the field, before writing a byte.
func TestHistogramOverflowIsRefused(t *testing.T) {
	b := core.NewBuilder()
	b.Add(newStatsInst("x", "n", "v", 1, []float64{0, 1.7e308, 0, 1.7e308}))
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const want = "obs: histogram x.v: sum is +Inf, which the document cannot carry"
	for name, write := range map[string]func(*bytes.Buffer, *core.Sim) error{
		"WriteJSON": func(w *bytes.Buffer, s *core.Sim) error { return obs.WriteJSON(w, s) },
		"WriteCSV":  func(w *bytes.Buffer, s *core.Sim) error { return obs.WriteCSV(w, s) },
	} {
		var buf bytes.Buffer
		err := write(&buf, sim)
		var ve *obs.ValueError
		if !errors.As(err, &ve) || err.Error() != want || buf.Len() != 0 {
			t.Errorf("%s: err %v, %d bytes written; want %q and nothing written", name, err, buf.Len(), want)
		}
	}
}

// FuzzStatsJSON builds a two-instance netlist from fuzzed instance and
// statistic names, a counter value and histogram samples, and requires
// the writers to equal the oracles, or both to refuse the document with
// the same error where encoding/json refuses it too.
func FuzzStatsJSON(f *testing.F) {
	f.Add("a", "b", "n", "v", int64(1), 0.0, 1.0, 2.0, 3.0)
	f.Fuzz(func(t *testing.T, inst1, inst2, stat1, stat2 string, v int64, x1, x2, x3, x4 float64) {
		stat := func(s string) string {
			if s = strings.ReplaceAll(s, ".", "_"); s == "" {
				return "_"
			}
			return s
		}
		stat1, stat2 = stat(stat1), stat(stat2)
		if inst1 == "" {
			inst1 = "_"
		}
		if inst2 == "" || inst2 == inst1 {
			inst2 = inst1 + "'"
		}
		b := core.NewBuilder(core.WithMetrics())
		b.Add(newStatsInst(inst1, stat1, stat2, v, []float64{x1, x2, x3, x4}))
		b.Add(newStatsInst(inst2, stat2, stat1, -v, []float64{x4, x3, x2, x1}))
		sim, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		snap := obs.TakeSnapshot(sim)
		want, oracleErr := oracleJSON(snap)
		var js, cv bytes.Buffer
		jsErr, cvErr := obs.WriteJSON(&js, sim), obs.WriteCSV(&cv, sim)
		if oracleErr != nil {
			var ve *obs.ValueError
			if !errors.As(jsErr, &ve) || cvErr == nil || jsErr.Error() != cvErr.Error() || js.Len()+cv.Len() != 0 {
				t.Fatalf("encoding/json refuses the document (%v); WriteJSON: %v, WriteCSV: %v, %d bytes written", oracleErr, jsErr, cvErr, js.Len()+cv.Len())
			}
			if !strings.HasPrefix(jsErr.Error(), "obs: histogram "+ve.Name+": ") {
				t.Fatalf("the error %q does not name the histogram %q", jsErr, ve.Name)
			}
			return
		}
		if jsErr != nil || cvErr != nil {
			t.Fatalf("WriteJSON: %v, WriteCSV: %v; encoding/json accepts the document", jsErr, cvErr)
		}
		if !bytes.Equal(js.Bytes(), want) {
			t.Fatalf("WriteJSON differs from encoding/json at byte %d:\n%s", firstDiff(js.Bytes(), want), diffContext(js.Bytes(), want))
		}
		if want := oracleCSV(snap); !bytes.Equal(cv.Bytes(), want) {
			t.Fatalf("WriteCSV differs from encoding/csv at byte %d:\n%s", firstDiff(cv.Bytes(), want), diffContext(cv.Bytes(), want))
		}
	})
}
