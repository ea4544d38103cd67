// Command lsc is the Liberty simulator constructor (Figure 1): it reads a
// Liberty Simulator Specification, elaborates it against the component
// libraries' template registry into an executable simulator, runs it, and
// reports statistics.
//
// Usage:
//
//	lsc [flags] spec.lss
//	lsc -templates
//
// Flags:
//
//	-cycles N      cycles to simulate (default 1000)
//	-seed N        deterministic random seed (default 0)
//	-scheduler S   sparse (the engine, the default) or sequential (the
//	               reference)
//	-schedule      dump the engine's static schedule and cluster plan
//	               (SCCs, levels, break sites, clusters)
//	-trace         dump the signal trace to stderr
//	-dot F         write the netlist as a Graphviz digraph to F
//	-vcd F         write a VCD waveform of every connection to F
//	-D name=value  override a top-level let binding (repeatable)
//	-profile       collect scheduler metrics; print a hot-module report
//	-cpuprofile F  write a pprof CPU profile of construction and the run to F
//	-exectrace F   write a runtime execution trace (go tool trace) of the
//	               same span to F (-trace is the signal trace)
//	-stats-json    emit the statistics snapshot as JSON on stdout
//	-stats-csv F   write the statistics snapshot as CSV to file F
//	-events N      keep the last N signal events; dump them on exit
//	-templates     list registered module templates and exit
//	-strict S      S = warning: fail construction when static analysis
//	               finds a diagnostic at warning severity or above
//	-metrics-addr  serve the running simulation's live JSON snapshot at
//	               /metrics on this HTTP address (lse.Server.SetLocal)
//
// With -stats-json, progress chatter moves to stderr so stdout stays
// machine-readable. Runs are interruptible: Ctrl-C stops the simulation
// on a cycle boundary, the statistics of the completed prefix are
// reported, and the metrics listener (when serving) drains cleanly.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sync"
	"syscall"

	"liberty/lse"
)

func main() {
	cycles := flag.Uint64("cycles", 1000, "cycles to simulate")
	seed := flag.Int64("seed", 0, "deterministic random seed")
	scheduler := flag.String("scheduler", "sparse", "sparse (the engine) or sequential (the reference)")
	schedule := flag.Bool("schedule", false, "dump the engine's static schedule and cluster plan to stderr")
	trace := flag.Bool("trace", false, "dump the signal trace to stderr")
	dot := flag.String("dot", "", "write the netlist as a Graphviz digraph to this file")
	vcd := flag.String("vcd", "", "write a VCD waveform of every connection to this file")
	stats := flag.String("stats", "", "only dump statistics whose names start with this prefix")
	statsJSON := flag.Bool("stats-json", false, "emit the statistics snapshot as JSON on stdout")
	statsCSV := flag.String("stats-csv", "", "write the statistics snapshot as CSV to this file")
	profile := flag.Bool("profile", false, "collect scheduler metrics and print a hot-module report to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of construction and the run to this file")
	execTrace := flag.String("exectrace", "", "write a runtime execution trace (go tool trace) of construction and the run to this file")
	events := flag.Int("events", 0, "keep the last N signal events and dump them to stderr on exit")
	defs := lse.Defines{}
	flag.Var(defs, "D", "override a top-level let binding: -D name=value (repeatable)")
	listTemplates := flag.Bool("templates", false, "list registered module templates and exit")
	strict := flag.String("strict", "", "warning: fail construction on a diagnostic at warning severity or above")
	metricsAddr := flag.String("metrics-addr", "", "serve the live JSON metrics snapshot on this HTTP address while running")
	flag.Parse()

	if *listTemplates {
		for _, name := range lse.DefaultRegistry.Names() {
			t, _ := lse.DefaultRegistry.Lookup(name)
			fmt.Printf("%-16s %s\n", name, t.Doc)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lsc [flags] spec.lss")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	info := os.Stdout
	if *statsJSON {
		info = os.Stderr // keep stdout pure JSON
	}
	opts := []lse.BuildOption{lse.WithSeed(*seed)}
	if on, err := lse.ParseStrict(*strict); err != nil {
		fatal(err)
	} else if on {
		opts = append(opts, lse.WithStrictAnalysis())
	}
	kind, err := lse.ParseSchedulerKind(*scheduler)
	if err != nil {
		fatal(err)
	}
	opts = append(opts, lse.WithScheduler(kind))
	// The viewers latch their first write error; lsc checks it after the
	// run, with the flushes and the waveform's Close. The signal trace goes
	// to stderr through a buffer (one write per resolution line is mostly
	// kernel time), emptied before anything else writes to stderr.
	textTracer := &lse.TextTracer{W: os.Stderr}
	if *trace {
		traceOut = bufio.NewWriterSize(os.Stderr, 64<<10)
		textTracer.W = traceOut
		opts = append(opts, lse.WithTracer(textTracer))
	}
	closeVCD := func() error { return nil }
	if *vcd != "" {
		f, err := os.Create(*vcd)
		if err != nil {
			fatal(err)
		}
		buf := bufio.NewWriterSize(f, 64<<10)
		vt := lse.NewVCDTracer(buf)
		opts = append(opts, lse.WithTracer(vt))
		closeVCD = func() error { return errors.Join(vt.Err(), buf.Flush(), f.Close()) }
	}
	var ev *lse.EventTracer
	if *events > 0 {
		ev = lse.NewEventTracer(*events)
	}
	if *profile || *metricsAddr != "" {
		// A live metrics endpoint implies scheduler metrics: the snapshot
		// it serves is empty without them.
		opts = append(opts, lse.WithMetrics())
	}
	if ev != nil {
		opts = append(opts, lse.WithTracer(ev))
	}
	stopProfiles, err := startProfiles(*cpuProfile, *execTrace)
	if err != nil {
		fatal(err)
	}
	sim, err := lse.LoadLSSFile(flag.Arg(0), string(src), defs, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "constructed simulator: %d instances, %d connections (%s scheduler)\n",
		len(sim.Instances()), len(sim.Conns()), sim.Scheduler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var srvWG sync.WaitGroup
	if *metricsAddr != "" {
		srv, err := lse.NewServer(lse.ServerConfig{})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		srv.SetLocal(sim)
		srvWG.Add(1)
		go func() {
			defer srvWG.Done()
			// Cancelling the signal context is the only shutdown path, so
			// the listener always drains before main returns.
			if err := srv.ListenAndServe(ctx, *metricsAddr); err != nil {
				fmt.Fprintln(os.Stderr, "lsc: metrics server:", err)
			}
		}()
		fmt.Fprintf(info, "serving live metrics on http://%s/metrics\n", *metricsAddr)
		defer srvWG.Wait()
		defer stop() // run finished: release the listener before waiting on it
	}
	if *schedule {
		if err := lse.WriteScheduleReport(os.Stderr, sim); err != nil {
			fatal(err)
		}
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fatal(err)
		}
		if err := lse.WriteDot(f, sim); err != nil {
			fatal(fmt.Errorf("writing %s: %w", *dot, err))
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "wrote netlist graph to %s\n", *dot)
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	runErr := sim.RunContext(ctx, *cycles)
	traceErr := textTracer.Err()
	if err := flushTrace(); traceErr == nil {
		traceErr = err
	}
	stopProfiles()
	// Flush the waveform before any exit: after a failed run it shows the
	// cycles that led to the failure.
	vcdErr := closeVCD()
	if errors.Is(runErr, context.Canceled) {
		// Interrupted: report the completed prefix instead of dying —
		// partial statistics from a long run are still statistics.
		fmt.Fprintf(os.Stderr, "lsc: interrupted at cycle %d\n", sim.Now())
		runErr = nil
	}
	if runErr != nil && ev != nil {
		// A contract violation is exactly when the captured event tail
		// matters; dump it before exiting.
		fmt.Fprintf(os.Stderr, "last %d signal events before failure:\n", ev.Len())
		ev.WriteText(os.Stderr)
	}
	if runErr != nil {
		fatal(runErr)
	}
	if traceErr != nil {
		fatal(fmt.Errorf("writing the signal trace: %w", traceErr))
	}
	if vcdErr != nil {
		fatal(fmt.Errorf("writing %s: %w", *vcd, vcdErr))
	}
	fmt.Fprintf(info, "simulated %d cycles\n", sim.Now())
	if n := sim.Now(); n > 0 {
		// GC-pressure note: the signal plane's data lane is released at
		// commit, so steady-state allocation tracks live traffic, not
		// netlist size. Mallocs is cumulative and monotonic, making the
		// delta meaningful even though other goroutines share the heap.
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		fmt.Fprintf(info, "heap: %.1f allocs/cycle, %.0f B/cycle, %.1f boxed data stores/cycle\n",
			float64(after.Mallocs-before.Mallocs)/float64(n),
			float64(after.TotalAlloc-before.TotalAlloc)/float64(n),
			float64(sim.SpillHits())/float64(n))
	}
	fmt.Fprintln(info)

	switch {
	case *statsJSON:
		if err := lse.WriteStatsJSON(os.Stdout, sim); err != nil {
			fatal(err)
		}
	default:
		sim.Stats().DumpPrefix(os.Stdout, *stats)
	}
	if *statsCSV != "" {
		f, err := os.Create(*statsCSV)
		if err != nil {
			fatal(err)
		}
		if err := lse.WriteStatsCSV(f, sim); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "wrote statistics CSV to %s\n", *statsCSV)
	}
	if *profile {
		if err := lse.WriteHotReport(os.Stderr, sim, 10); err != nil {
			fatal(err)
		}
	}
	if ev != nil && runErr == nil {
		fmt.Fprintf(os.Stderr, "last %d signal events:\n", ev.Len())
		ev.WriteText(os.Stderr)
	}
}

// startProfiles begins the CPU profile and runtime execution trace that
// were asked for and returns the function that finishes and closes them.
func startProfiles(cpuFile, traceFile string) (stop func(), err error) {
	var stops []func()
	begin := func(name string, start func(*os.File) error, end func()) error {
		if name == "" {
			return nil
		}
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := start(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		stops = append(stops, func() {
			end()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "lsc:", err)
			}
		})
		return nil
	}
	if err := begin(cpuFile, func(f *os.File) error { return pprof.StartCPUProfile(f) }, pprof.StopCPUProfile); err != nil {
		return nil, err
	}
	if err := begin(traceFile, func(f *os.File) error { return rtrace.Start(f) }, rtrace.Stop); err != nil {
		return nil, err
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}, nil
}

// traceOut buffers the -trace signal trace on its way to stderr; nil
// without -trace.
var traceOut *bufio.Writer

// flushTrace writes out what the signal trace has buffered.
func flushTrace() error {
	if traceOut == nil {
		return nil
	}
	return traceOut.Flush()
}

func fatal(err error) {
	flushTrace()
	fmt.Fprintln(os.Stderr, "lsc:", err)
	os.Exit(1)
}
