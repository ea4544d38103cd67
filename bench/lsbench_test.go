package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
	// The tail reported is the highest rung with >= 10 samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{8, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %g, want 10", got)
	}
}

// spread must agree with Python's statistics.quantiles(n=4), which is what
// the driver judges the benchmark by: quantiles(1..10) = [2.75, 5.5, 8.25].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30, N: 7},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50}, // overlaps a: the union counts once
		{ID: 3, Parent: 0, Name: "a", Start: 60, End: 70, N: 1},
		{ID: 4, Parent: 2, Name: "c", Start: 25, End: 45},
		{ID: 5, Parent: 0, Name: "late", Start: 95, End: 120}, // clipped to its parent
	}
	sums := summarize(spans)
	want := map[string]layerSum{
		"job":  {Calls: 1, DurNs: 100, SelfNs: 100 - 40 - 10 - 5},
		"a":    {Calls: 2, DurNs: 30, SelfNs: 30, N: 8},
		"b":    {Calls: 1, DurNs: 30, SelfNs: 10},
		"c":    {Calls: 1, DurNs: 20, SelfNs: 20},
		"late": {Calls: 1, DurNs: 25, SelfNs: 25},
	}
	for name, w := range want {
		if got := sums[name]; got == nil || *got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}

// A nil *jobTrace must run the same code and record nothing.
func TestUntracedSpansRecordNothing(t *testing.T) {
	var jt *jobTrace
	ran := false
	jt.span("x", func() int64 { ran = true; return 1 })
	if !ran {
		t.Fatal("untraced span did not run its function")
	}
	tr := newTracer()
	j := tr.job(3)
	j.span("outer", func() int64 {
		j.span("inner", func() int64 { return 2 })
		return 1
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != -1 || tr.spans[1].Job != 3 {
		t.Errorf("spans = %+v", tr.spans)
	}
}

func TestDigestIgnoresMapOrder(t *testing.T) {
	a := `{"cycles":9,"counters":{"a.received":1,"b.received":2,"c":3},"histograms":{"x.latency":{"count":2,"sum":3.5},"y.latency":{"count":1,"sum":0.25}}}`
	b := `{"histograms":{"y.latency":{"sum":0.25,"count":1},"x.latency":{"sum":3.5,"count":2}},"counters":{"c":3,"b.received":2,"a.received":1},"cycles":9}`
	da, err := parseStats([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	want := da.digest()
	for i := 0; i < 50; i++ { // Go randomizes map iteration per range
		db, err := parseStats([]byte(b))
		if err != nil {
			t.Fatal(err)
		}
		if got := db.digest(); got != want {
			t.Fatalf("digest depends on order: %x vs %x", got, want)
		}
		if s, n := db.latency(); s != 3.75 || n != 3 {
			t.Fatalf("latency = %g/%d", s, n)
		}
	}
	if da.transfers() != 3 {
		t.Errorf("transfers = %d, want 3", da.transfers())
	}
	for _, changed := range []string{
		`{"cycles":10,"counters":{"a.received":1,"b.received":2,"c":3},"histograms":{"x.latency":{"count":2,"sum":3.5},"y.latency":{"count":1,"sum":0.25}}}`,
		`{"cycles":9,"counters":{"a.received":1,"b.received":2,"c":4},"histograms":{"x.latency":{"count":2,"sum":3.5},"y.latency":{"count":1,"sum":0.25}}}`,
		`{"cycles":9,"counters":{"a.received":1,"b.received":2,"c":3},"histograms":{"x.latency":{"count":2,"sum":3.5},"y.latency":{"count":1,"sum":0.5}}}`,
	} {
		d, _ := parseStats([]byte(changed))
		if d.digest() == want {
			t.Errorf("digest blind to a change: %s", changed)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) []byte {
		e := &env{seed: seed}
		var seeds []int64
		for _, def := range workloads {
			if w, ok := def.new(e).(*inproc); ok {
				for i := 0; i < 2*w.nvar; i++ {
					seeds = append(seeds, w.jobSeed(i))
				}
			}
		}
		raw, err := json.Marshal(map[string]any{"trips": lsdPlan(seed), "model_seeds": seeds,
			"sweep_seed": (&orionSweep{e: e}).cfg().Seed})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := gen(7), gen(7); string(a) != string(b) {
		t.Errorf("same seed, different inputs:\n%s\n%s", a, b)
	}
	if string(gen(7)) == string(gen(8)) {
		t.Error("different seeds generated the same inputs")
	}
	plan := lsdPlan(1)
	var miss, ckpt int
	for _, tr := range plan {
		if tr.Miss {
			miss++
		}
		if tr.Checkpoint {
			ckpt++
		}
		if tr.Miss && tr.Checkpoint {
			t.Error("a trip both misses the cache and checkpoints: the two legs must stay separable")
		}
		if tr.Checkpoint != (tr.Spec == "pipeline") {
			t.Error("only the pcl-only pipeline spec can be checkpointed")
		}
	}
	if miss != len(plan)/10 || ckpt != len(plan)/5 {
		t.Errorf("%d misses and %d checkpoint trips in %d", miss, ckpt, len(plan))
	}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(jobMs []float64, failed int, reacts []float64) *resultFile {
		return &resultFile{Workloads: map[string]*workloadSamples{"mesh_busy": {
			Attempted: []int{10}, Failed: []int{failed},
			Metrics: map[string]*sampleSet{
				"job_ms_p50":            {Unit: "ms", Values: jobMs},
				"core.reacts_per_cycle": {Unit: "count", Values: reacts},
			},
		}}}
	}
	verdictOf := func(a, b *resultFile, metric string) string {
		for _, r := range compare(a, b) {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		return "absent"
	}
	steady := []float64{100, 101, 99, 100}
	base := file(steady, 0, []float64{385.5, 385.5})
	for _, c := range []struct {
		name   string
		b      *resultFile
		metric string
		want   string
	}{
		{"same", file(steady, 0, []float64{385.5}), "job_ms_p50", "unchanged"},
		{"within bound", file([]float64{105, 106, 104, 105}, 0, nil), "job_ms_p50", "unchanged"},
		{"beyond bound", file([]float64{130, 131, 129, 130}, 0, nil), "job_ms_p50", "regressed"},
		{"better", file([]float64{70, 71, 69, 70}, 0, nil), "job_ms_p50", "improved"},
		{"too noisy to call", file([]float64{70, 100, 130, 160}, 0, nil), "job_ms_p50", "unresolved"},
		{"noisy but every run better", file([]float64{20, 40, 60, 80}, 0, nil), "job_ms_p50", "improved"},
		{"count repeats", file(steady, 0, []float64{385.5, 385.5}), "core.reacts_per_cycle", "exact"},
		{"count moved", file(steady, 0, []float64{385.5, 385.6}), "core.reacts_per_cycle", "mismatch"},
		{"new failures", file(steady, 1, nil), "fail_ratio", "failures"},
	} {
		if got := verdictOf(base, c.b, c.metric); got != c.want {
			t.Errorf("%s: %s is %q, want %q", c.name, c.metric, got, c.want)
		}
	}
	// The bound applies in the metric's own direction.
	d := metricDef{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	if v, _ := judge(d, []float64{10, 10}, []float64{8, 8}); v != "regressed" {
		t.Errorf("throughput drop judged %q", v)
	}
	if v, _ := judge(d, []float64{10, 10}, []float64{12, 12}); v != "improved" {
		t.Errorf("throughput gain judged %q", v)
	}
}

// BENCHMARK.json is generated from the tables in metrics.go (`lsbench
// manifest`); the two must not drift, and the tables must stay inside the
// limits the benchmark driver refuses files beyond.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromTables any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, _ := json.Marshal(manifest())
	if err := json.Unmarshal(gen, &fromTables); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromTables) {
		t.Error("BENCHMARK.json differs from `lsbench manifest`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", d)
	}
}

// One short untraced run of the cheapest workload end to end: every
// end-to-end metric present and non-zero, every job correct.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator for half a second")
	}
	res, err := run(&env{dir: ".", seed: goldenSeed, seconds: 0.5}, findWorkload("construct_corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
			t.Errorf("%s = %+v", d.Name, v)
		}
	}
}
