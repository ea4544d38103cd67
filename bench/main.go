// Command lsbench is the repository's benchmark: paper models run to
// completion, end-to-end numbers measured with tracing off, and a
// per-layer ledger measured from outside each layer's public functions
// in a separate traced pass. bench/run.sh builds it together with the lsd
// daemon and is the way to start it; README.md has the tables.
//
//	lsbench -dir D -lsd BIN --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of stdout is its JSON result
//	lsbench -dir D -lsd BIN [-seed N] [-seconds S] [-runs R] [-only W]
//	    every workload, both passes, each run in its own child process;
//	    prints every metric and writes out/result-<commit>-<seed>.json
//	lsbench compare A.json B.json
//	    applies each metric's bound to two result files; exit 1 on a regression
//	lsbench -dir D -update-golden
//	    rewrites golden.json from the default seed's reference digests
//	lsbench manifest
//	    prints BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var e env
	flag.StringVar(&e.dir, "dir", ".", "the benchmark's directory (specs/, golden.json, out/)")
	flag.StringVar(&e.lsd, "lsd", "", "path of the lsd binary to measure")
	flag.Int64Var(&e.seed, "seed", goldenSeed, "seed all inputs are generated from")
	flag.Float64Var(&e.seconds, "seconds", runSeconds, "length of a run's timed section")
	name := flag.String("workload", "", "run this one workload and print its result line")
	trace := flag.Int("trace", 0, "1: the traced pass, printing the per-layer metrics")
	runs := flag.Int("runs", 1, "all-workloads mode: runs per workload and pass")
	only := flag.String("only", "", "all-workloads mode: just this workload")
	updateGolden := flag.Bool("update-golden", false, "rewrite golden.json and exit")
	flag.Parse()
	e.trace = *trace != 0

	err := func() error {
		switch {
		case flag.Arg(0) == "compare" && flag.NArg() == 3:
			return compareFiles(flag.Arg(1), flag.Arg(2))
		case flag.Arg(0) == "manifest" && flag.NArg() == 1:
			return json.NewEncoder(os.Stdout).Encode(manifest())
		case flag.NArg() != 0:
			return fmt.Errorf("unexpected arguments %q", flag.Args())
		case *updateGolden:
			return writeGolden(&e)
		case *name != "":
			def := findWorkload(*name)
			if def == nil {
				return fmt.Errorf("unknown workload %q", *name)
			}
			res, err := run(&e, def)
			if err != nil {
				return err
			}
			return json.NewEncoder(os.Stdout).Encode(res)
		}
		return runAll(&e, *only, *runs)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsbench:", err)
		os.Exit(1)
	}
}

// runSeconds is BENCHMARK.json's run_seconds.
const runSeconds = 10

// manifest renders the workload and metric tables as BENCHMARK.json.
func manifest() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.Name, w.Why})
	}
	var es []e2e
	for _, d := range endToEnd {
		es = append(es, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	var ls []layer
	for _, d := range perLayer {
		ls = append(ls, layer{d.Name, d.Unit, d.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}

// writeGolden recomputes every deterministic workload's reference digests
// for the default seed. It runs each workload briefly: the references do
// not depend on how many jobs were timed.
func writeGolden(e *env) error {
	e.seed, e.trace = goldenSeed, false
	golden := map[string][]string{}
	for i := range workloads {
		def := &workloads[i]
		if !def.Deterministic {
			continue
		}
		w := def.new(e)
		if err := w.setUp(); err != nil {
			w.tearDown()
			return err
		}
		var timed []jobResult
		for i := 0; i < w.variants(); i++ {
			timed = append(timed, w.job(i, nil))
		}
		ref, err := w.reference(timed)
		w.tearDown()
		if err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		golden[def.Name] = goldenOf(ref)
	}
	raw, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(e.dir), append(raw, '\n'), 0o644)
}
