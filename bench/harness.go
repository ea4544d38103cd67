package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how often the set-up is repeated to report its median; the
// last one stays up for the jobs.
const setupReps = 7

// env is what the command line fixed for this run.
type env struct {
	dir     string // the benchmark's own directory: specs/, golden.json, out/
	lsd     string // path of the lsd binary under test
	seed    int64
	seconds float64
	trace   bool
}

// workload is one row of the workload table, driven by run.
type workload interface {
	// setUp brings the workload to where the first job can start: inputs
	// loaded, daemon up, caches warm. tearDown undoes it.
	setUp() error
	tearDown()
	// variants is the number of distinct jobs the seed generates; job i
	// repeats job i%variants. clients is how many closed loops issue jobs.
	variants() int
	clients() int
	job(i int, jt *jobTrace) jobResult
	// pid and mem identify the process under test (this one, or lsd).
	pid() int
	mem() (memSample, error)
	// reference computes, untimed, what every distinct job must produce;
	// it is handed the timed jobs for workloads whose only oracle is that
	// repeated jobs agree.
	reference(timed []jobResult) (refResult, error)
}

// jobResult is what one job reports to the harness.
type jobResult struct {
	index  int
	traced bool
	ms     float64 // latency
	err    error   // any error fails the job

	cycles     uint64 // simulated
	stepNs     int64  // host time inside Run / RunUntil / MeasureRate
	runMallocs uint64 // heap objects allocated inside those calls (traced pass)
	// docs are the statistics JSON documents the job produced, one per
	// simulator; digests are their FNV digests, which a job fills itself
	// only when it does not keep the documents.
	docs    [][]byte
	digests []uint64
	modelMs []float64  // per model: spec to ready simulator
	ops     []opSample // lsd: one per HTTP request
}

// refResult is the outcome of the untimed reference jobs.
type refResult struct {
	digests [][]uint64 // per variant, what each job's digests must equal
	// stepNs/cycles time the same jobs under the sequential engine.
	stepNs int64
	cycles uint64
	// pkgOf maps an instance name to its component library.
	pkgOf map[string]string
	// extra jobs, digested like timed ones (construct_corpus).
	extra []jobResult
	// inprocUsPerCycle is the in-process cost of the spec lsd serves.
	inprocUsPerCycle float64
}

// keepsDocs reports whether job i's statistics documents are read after
// the run. Those of the first two rounds are — one untraced, one traced,
// each seeing every distinct input once; later jobs need only digests, and
// holding a long run's documents would distort the memory numbers.
func keepsDocs(i, variants int) bool { return i < 2*variants }

// outcome is one run's result line.
type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload for e.seconds and returns its result line.
func run(e *env, def *workloadDef) (*outcome, error) {
	w := def.new(e)
	reps := setupReps
	if e.trace {
		reps = 1 // set-up time is an end-to-end metric; the traced pass does not report it
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		if r > 0 {
			w.tearDown()
		}
		start := time.Now()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.tearDown()

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	nvar := w.variants()
	runtime.GC()
	mem0, err := w.mem()
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(w.pid())
	if err != nil {
		return nil, err
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		results []jobResult
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				// Rounds of `variants` jobs alternate untraced and traced, so
				// both kinds see every distinct input and the same machine.
				var jt *jobTrace
				if tr != nil && (i/nvar)%2 == 1 {
					jt = tr.job(i)
				}
				o := jt.begin("job")
				r := w.job(i, jt)
				r.ms = float64(jt.end(o, 0).Nanoseconds()) / 1e6
				r.index, r.traced = i, jt != nil
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	cpu1, err := cpuSeconds(w.pid())
	if err != nil {
		return nil, err
	}
	mem1, err := w.mem()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(w.pid())
	if err != nil {
		return nil, err
	}

	ref, err := w.reference(results)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	a := &analysis{e: e, def: def, nvar: nvar, results: results, ref: ref, wall: wall}
	if err := a.check(); err != nil {
		return nil, err
	}

	jobs := float64(len(results))
	m := map[string]float64{}
	if !e.trace {
		m["setup_s"] = median(setups)
		m["job_ms_p50"] = median(a.latencies(false))
		m["jobs_per_s"] = jobs / wall
		m["cpu_ms_per_job"] = (cpu1 - cpu0) * 1e3 / jobs
		m["alloc_mb_per_job"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1e6 / jobs
	} else {
		a.layers(m, tr)
		m["runtime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
		m["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
		m["runtime.heap_inuse_mb_end"] = float64(mem1.HeapInuse) / 1e6
		m["runtime.peak_rss_mb"] = rss
		if w.pid() != os.Getpid() {
			m["lsd.cpu_s"] = cpu1 - cpu0
			m["lsd.cpu_per_roundtrip_ms"] = (cpu1 - cpu0) * 1e3 / jobs
		}
		out := filepath.Join(e.dir, "out")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(out, "trace-"+def.Name+".json")); err != nil {
			return nil, err
		}
	}

	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := &outcome{Attempted: len(results), Failed: a.failed, Metrics: map[string]metricVal{}}
	// Every distinct input must have been seen, in the traced pass by both
	// kinds of round.
	need := nvar
	if e.trace {
		need = 2 * nvar
	}
	res.Correct = a.failed == 0 && len(results) >= need
	if len(results) < need {
		fmt.Fprintf(os.Stderr, "lsbench: only %d jobs completed in %gs; %d are needed to see every input\n", len(results), e.seconds, need)
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricVal{m[d.Name], d.Unit}
	}
	return res, nil
}
