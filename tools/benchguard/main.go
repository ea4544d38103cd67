// Command benchguard compares a `go test -bench` output against a
// checked-in JSON baseline (BENCH_*.json) and exits nonzero when any
// benchmark regressed beyond the threshold — the bench-smoke CI gate.
//
// Usage:
//
//	go test -bench=... -benchmem -run=^$ . | tee bench.out
//	go run ./tools/benchguard -baseline BENCH_10.json bench.out
//
// Two metrics are gated. ns/op fails when it exceeds the baseline by the
// -threshold factor. allocs/op (present when the run used -benchmem)
// fails when it exceeds max(baseline*threshold, baseline+0.5): the
// additive slack keeps a 0-alloc baseline meaningful — any steady-state
// allocation on a zero-alloc path is a regression — without tripping on
// amortized fractional counts. A baseline row without an allocs_per_op
// field, or an output row without an allocs/op column, gates ns/op only,
// so old baselines and -benchmem-less runs keep working.
//
// Only regressions fail: a benchmark running faster than its baseline, or
// one missing from the baseline, is reported but never an error, so the
// guard stays quiet while new benchmarks land ahead of a baseline
// refresh. Baseline entries missing from the output are warnings too —
// the smoke pattern may legitimately run a subset.
//
// Repeated samples of the same benchmark (go test -count=N) are folded
// to their minimum before comparison: the min of a few short runs is a
// far more stable estimate of the code's true cost on a noisy shared
// host than any single sample, and a genuine regression slows every
// sample, so taking the min never masks one.
//
// Beyond the baseline, -notslower 'A<=B' (repeatable) gates one row of
// the run against another row of the same run: A's ns/op must not
// exceed B's by the -notslower-threshold factor (default 1.10 — wide
// enough for scheduling noise on a shared host, tight enough to catch a
// real slowdown). This is bench-weave's gate: a woven row must never
// lose to its levelized twin, on any host. A missing row is a warning,
// not a failure, so the gate tolerates smoke patterns that skip the pair.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// notSlowerFlag collects repeated -notslower 'A<=B' pairs.
type notSlowerFlag [][2]string

func (f *notSlowerFlag) String() string { return "" }

func (f *notSlowerFlag) Set(s string) error {
	a, b, ok := strings.Cut(s, "<=")
	if !ok || a == "" || b == "" {
		return fmt.Errorf("want 'BenchA<=BenchB', got %q", s)
	}
	*f = append(*f, [2]string{a, b})
	return nil
}

type baseline struct {
	Benchmarks []struct {
		Name        string   `json:"name"`
		NsPerOp     float64  `json:"ns_per_op"`
		AllocsPerOp *float64 `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// benchLine matches one result row; the -N suffix go test appends to the
// name (GOMAXPROCS) is stripped so names align with the baseline's. The
// allocs/op column is optional (absent without -benchmem); custom
// ReportMetric columns may sit between it and ns/op.
var benchLine = regexp.MustCompile(
	`^(Benchmark[^\s]+?)(-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*\s([0-9]+) allocs/op)?`)

type sample struct {
	ns     float64
	allocs float64
	hasAll bool
}

func main() {
	basePath := flag.String("baseline", "BENCH_10.json", "baseline JSON file (BENCH_*.json layout)")
	threshold := flag.Float64("threshold", 1.25, "fail when a metric exceeds baseline by this factor")
	var notSlower notSlowerFlag
	flag.Var(&notSlower, "notslower", "gate 'A<=B': row A's ns/op must not exceed row B's (repeatable)")
	nsThreshold := flag.Float64("notslower-threshold", 1.10, "slack factor for -notslower comparisons")
	flag.Parse()

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *basePath, err))
	}
	wantNs := map[string]float64{}
	wantAllocs := map[string]float64{}
	for _, b := range base.Benchmarks {
		wantNs[b.Name] = b.NsPerOp
		if b.AllocsPerOp != nil {
			wantAllocs[b.Name] = *b.AllocsPerOp
		}
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	best := map[string]*sample{} // min per metric across repeated samples
	var order []string
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		s, ok := best[name]
		if !ok {
			s = &sample{ns: ns}
			best[name] = s
			order = append(order, name)
		} else if ns < s.ns {
			s.ns = ns
		}
		if m[4] != "" {
			if allocs, err := strconv.ParseFloat(m[4], 64); err == nil {
				if !s.hasAll || allocs < s.allocs {
					s.allocs = allocs
					s.hasAll = true
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	failed := 0
	for _, name := range order {
		got := best[name]
		refNs, ok := wantNs[name]
		if !ok {
			fmt.Printf("benchguard: %-50s %12.0f ns/op  (no baseline)\n", name, got.ns)
			continue
		}
		ratio := got.ns / refNs
		status := "ok"
		if ratio > *threshold {
			status = "REGRESSED"
			failed++
		}
		allocNote := ""
		if refAllocs, ok := wantAllocs[name]; ok && got.hasAll {
			limit := refAllocs * *threshold
			if floor := refAllocs + 0.5; floor > limit {
				limit = floor
			}
			allocNote = fmt.Sprintf("  %4.0f allocs/op (base %.0f)", got.allocs, refAllocs)
			if got.allocs > limit {
				status = "REGRESSED(allocs)"
				failed++
			}
		}
		fmt.Printf("benchguard: %-50s %12.0f ns/op  %6.2fx baseline%s  %s\n",
			name, got.ns, ratio, allocNote, status)
	}
	for name := range wantNs {
		if _, ok := best[name]; !ok {
			fmt.Printf("benchguard: %-50s not in this run\n", name)
		}
	}
	for _, pair := range notSlower {
		a, okA := best[pair[0]]
		b, okB := best[pair[1]]
		if !okA || !okB {
			fmt.Printf("benchguard: notslower %s<=%s: row(s) missing from this run, skipped\n", pair[0], pair[1])
			continue
		}
		ratio := a.ns / b.ns
		status := "ok"
		if ratio > *nsThreshold {
			status = "SLOWER"
			failed++
		}
		fmt.Printf("benchguard: notslower %s (%.0f ns/op) vs %s (%.0f ns/op): %.2fx  %s\n",
			pair[0], a.ns, pair[1], b.ns, ratio, status)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d benchmark metric(s) regressed beyond threshold over %s",
			failed, *basePath))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
