package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// resultFile is what the all-workloads mode writes and compare reads.
type resultFile struct {
	Commit    string                      `json:"commit"`
	Seed      int64                       `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Nproc     int                         `json:"nproc"`
	Go        string                      `json:"go"`
	Workloads map[string]*workloadSamples `json:"workloads"`
}

// workloadSamples holds one value per run for every metric, so a reader
// sees the sample count and the spread, not just a summary.
type workloadSamples struct {
	Attempted []int                 `json:"attempted"`
	Failed    []int                 `json:"failed"`
	Metrics   map[string]*sampleSet `json:"metrics"`
}

type sampleSet struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runAll runs every selected workload `runs` times in each pass, each run
// in a child process of its own so that peak memory, the heap and the
// scheduler state of one cannot reach the next.
func runAll(e *env, only string, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := &resultFile{Commit: commit(e.dir), Seed: e.seed, Seconds: e.seconds,
		Nproc: runtime.NumCPU(), Go: runtime.Version(), Workloads: map[string]*workloadSamples{}}
	incorrect := 0
	for _, def := range workloads {
		if only != "" && def.Name != only {
			continue
		}
		ws := &workloadSamples{Metrics: map[string]*sampleSet{}}
		res.Workloads[def.Name] = ws
		for trace := 0; trace <= 1; trace++ {
			for r := 0; r < runs; r++ {
				cmd := exec.Command(self, "-dir", e.dir, "-lsd", e.lsd, "--workload", def.Name,
					"--seed", strconv.FormatInt(e.seed, 10), "--seconds", fmt.Sprint(e.seconds), "--trace", strconv.Itoa(trace))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", def.Name, trace, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var o outcome
				if err := json.Unmarshal(lines[len(lines)-1], &o); err != nil {
					return fmt.Errorf("%s (trace %d): result line: %w", def.Name, trace, err)
				}
				if !o.Correct {
					incorrect++
				}
				ws.Attempted = append(ws.Attempted, o.Attempted)
				ws.Failed = append(ws.Failed, o.Failed)
				for name, v := range o.Metrics {
					if ws.Metrics[name] == nil {
						ws.Metrics[name] = &sampleSet{Unit: v.Unit}
					}
					ws.Metrics[name].Values = append(ws.Metrics[name].Values, v.Value)
				}
			}
		}
		printWorkload(def.Name, ws)
	}
	if len(res.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	out := filepath.Join(e.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("result-%s-%d.json", res.Commit, e.seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresults: %s\ntraces:  %s\n", path, filepath.Join(out, "trace-<workload>.json"))
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed a correctness check", incorrect)
	}
	return nil
}

// commit names the checkout for the result file; outside a git repository
// it is "nogit".
func commit(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}

func printWorkload(name string, ws *workloadSamples) {
	var attempted, failed int
	for i := range ws.Attempted {
		attempted += ws.Attempted[i]
		failed += ws.Failed[i]
	}
	fmt.Printf("\n== %s: %d jobs attempted, %d failed (fail_ratio %g)\n", name, attempted, failed, ratio(float64(failed), float64(attempted)))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			s := ws.Metrics[d.Name]
			if s == nil {
				continue
			}
			fmt.Printf("  %-36s %14.6g %-9s n=%d spread=%.1f%%\n", d.Name, median(s.Values), s.Unit, len(s.Values), 100*spread(s.Values))
		}
	}
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles gates result file B against A and fails on a regression.
func compareFiles(pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return fmt.Errorf("the files differ in seed or run length (%d/%gs against %d/%gs): not comparable", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	rows := compare(a, b)
	bad, unresolved := 0, 0
	for _, r := range rows {
		if r.Verdict == "unchanged" || r.Verdict == "exact" {
			continue
		}
		fmt.Printf("%-18s %-36s %-10s %s\n", r.Workload, r.Metric, r.Verdict, r.Detail)
		switch r.Verdict {
		case "regressed", "mismatch", "failures":
			bad++
		case "unresolved":
			unresolved++
		}
	}
	fmt.Printf("%d rows compared: %d regressed or mismatched, %d unresolved\n", len(rows), bad, unresolved)
	if bad > 0 {
		return errors.New("regression")
	}
	return nil
}

// verdict is one row of a comparison: a metric on a workload.
type verdict struct {
	Workload, Metric, Verdict, Detail string
}

// compare applies, per workload, each end-to-end metric's bound to the
// medians of a (parent) and b (change), and demands equality of every
// exact count on the deterministic workloads.
func compare(a, b *resultFile) []verdict {
	var rows []verdict
	for _, def := range workloads {
		wa, wb := a.Workloads[def.Name], b.Workloads[def.Name]
		if wa == nil || wb == nil {
			continue
		}
		if fa, fb := sumInts(wa.Failed), sumInts(wb.Failed); fb > fa {
			rows = append(rows, verdict{def.Name, "fail_ratio", "failures", fmt.Sprintf("%d failed jobs, the parent had %d", fb, fa)})
		}
		for _, d := range endToEnd {
			sa, sb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if sa == nil || sb == nil {
				continue
			}
			v, detail := judge(d, sa.Values, sb.Values)
			rows = append(rows, verdict{def.Name, d.Name, v, detail})
		}
		for _, d := range perLayer {
			sa, sb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if !d.Exact || !def.Deterministic || sa == nil || sb == nil || len(sa.Values) == 0 {
				continue
			}
			v := "exact"
			for _, x := range append(append([]float64(nil), sa.Values...), sb.Values...) {
				if x != sa.Values[0] {
					v = "mismatch"
				}
			}
			rows = append(rows, verdict{def.Name, d.Name, v, fmt.Sprintf("%v against %v", sa.Values, sb.Values)})
		}
	}
	return rows
}

// judge decides one end-to-end metric. A spread wider than the bound on
// either side leaves the metric unresolved — not unchanged — unless every
// run of the change reads better than every run of the parent.
func judge(d metricDef, a, b []float64) (string, string) {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma) // share of the parent's median by which the change is worse
	if d.Better == "higher" {
		worse = -worse
	}
	sa, sb := spread(a), spread(b)
	detail := fmt.Sprintf("%.6g -> %.6g %s (%+.1f%%, bound %.0f%%, spread %.1f%%/%.1f%%)",
		ma, mb, d.Unit, 100*ratio(mb-ma, ma), 100*d.Bound, 100*sa, 100*sb)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case max(sa, sb) > d.Bound && !allBetter:
		return "unresolved", detail
	case worse > d.Bound:
		return "regressed", detail
	case worse < -d.Bound:
		return "improved", detail
	}
	return "unchanged", detail
}

func sumInts(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}
