// Command orion characterizes an interconnection network's load/latency/
// power behavior, regenerating the classic Orion curves (experiment C5):
// a table of delivered throughput, mean packet latency and network power
// (dynamic + leakage) against offered load.
//
// Usage:
//
//	orion [-w 8] [-h 8] [-torus] [-pattern uniform] [-size 4]
//	      [-cycles 2000] [-rates 0.05,0.1,...] [-seed 1] [-par 0]
//	      [-metrics-addr :8123] [-remote http://host:8123]
//
// The network is compiled once into a shared program; every operating
// point stamps its own simulation session from it, and up to -par points
// (default GOMAXPROCS) run concurrently. Sweeps are cancellable: an
// interrupt (Ctrl-C) stops the in-flight points on a cycle boundary and
// prints the points measured so far. With -metrics-addr, a live JSON
// snapshot of a point being simulated is served at /metrics for
// watching long characterizations progress; the listener shuts down
// cleanly with the sweep.
//
// With -remote, the sweep runs against a lsd daemon instead of
// in-process: each operating point submits the mesh specification with
// its rate as a define (the daemon's program cache dedupes repeated
// sweeps of the same point), stamps a session, runs it and reads the
// statistics back over /v1. Remote sweeps report throughput and latency
// only — power accounting needs the in-process structural inventory —
// and support the spec-expressible subset of the fabric (no -adaptive,
// no -vcs > 1).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"liberty/internal/ccl"
	"liberty/internal/simd"
)

func main() {
	w := flag.Int("w", 8, "mesh width")
	h := flag.Int("h", 8, "mesh height")
	torus := flag.Bool("torus", false, "wrap into a torus")
	adaptive := flag.Bool("adaptive", false, "minimal-adaptive routing")
	vcs := flag.Int("vcs", 1, "virtual channels per router input")
	pattern := flag.String("pattern", "uniform", "traffic pattern: uniform|transpose|complement|hotspot|neighbor")
	size := flag.Int("size", 4, "packet size in flits")
	cycles := flag.Uint64("cycles", 2000, "measured cycles per point")
	seed := flag.Int64("seed", 1, "random seed")
	par := flag.Int("par", 0, "operating points measured concurrently (0 = GOMAXPROCS)")
	ratesFlag := flag.String("rates", "0.02,0.05,0.1,0.15,0.2,0.3,0.4,0.6,0.8,0.95",
		"comma-separated offered loads (packets/node/cycle)")
	metricsAddr := flag.String("metrics-addr", "", "serve live JSON metrics on this HTTP address while sweeping")
	remote := flag.String("remote", "", "run the sweep against a lsd daemon at this base URL instead of in-process")
	flag.Parse()

	var rates []float64
	for _, f := range strings.Split(*ratesFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orion: bad rate %q: %v\n", f, err)
			os.Exit(2)
		}
		rates = append(rates, v)
	}
	cfg := ccl.SweepCfg{
		W: *w, H: *h, Torus: *torus, Adaptive: *adaptive, VCs: *vcs,
		Pattern: *pattern, Size: *size, Cycles: *cycles, Seed: *seed,
		Parallel: *par,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	topo := "mesh"
	if *torus {
		topo = "torus"
	}

	if *remote != "" {
		if *adaptive || *vcs > 1 {
			fmt.Fprintln(os.Stderr, "orion: -remote sweeps support the spec-expressible fabric only (no -adaptive, no -vcs > 1)")
			os.Exit(2)
		}
		fmt.Printf("orion: %dx%d %s, %s traffic, %d-flit packets, %d cycles/point (remote %s)\n\n",
			*w, *h, topo, *pattern, *size, *cycles, *remote)
		pts, err := runRemoteSweep(ctx, *remote, cfg, rates)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "orion: interrupted after %d of %d points\n", len(pts), len(rates))
				ccl.PrintSweep(os.Stdout, pts)
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, "orion:", err)
			os.Exit(1)
		}
		ccl.PrintSweep(os.Stdout, pts)
		return
	}

	var wg sync.WaitGroup
	if *metricsAddr != "" {
		srv, err := simd.NewServer(simd.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "orion: metrics server:", err)
			os.Exit(1)
		}
		defer srv.Close()
		cfg.Metrics = true // the endpoint is only useful with scheduler metrics on
		cfg.OnSim = srv.SetLocal
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The signal context that cancels the sweep also drains the
			// listener, so Ctrl-C never leaks it.
			if err := srv.ListenAndServe(ctx, *metricsAddr); err != nil {
				fmt.Fprintln(os.Stderr, "orion: metrics server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "orion: serving live metrics on http://%s/metrics\n", *metricsAddr)
		defer wg.Wait()
		defer stop() // sweep finished: release the listener before waiting on it
	}

	fmt.Printf("orion: %dx%d %s, %s traffic, %d-flit packets, %d cycles/point\n\n",
		*w, *h, topo, *pattern, *size, *cycles)
	pts, err := ccl.RunSweepContext(ctx, cfg, rates)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "orion: interrupted after %d of %d points\n", len(pts), len(rates))
			ccl.PrintSweep(os.Stdout, pts)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "orion:", err)
		os.Exit(1)
	}
	ccl.PrintSweep(os.Stdout, pts)
}

// remoteSpec is the LSS form of the sweep fabric. The rate rides in as a
// define, so each operating point keys its own cached program on the
// daemon; re-running a sweep (from this or any other client) hits the
// cache instead of recompiling.
const remoteSpec = `# orion remote sweep fabric
let w = 8;
let h = 8;
let torus = false;
let rate = 0.1;
let size = 4;
let pattern = "uniform";
let n = w * h;

instance net    : ccl.mesh(w = w, h = h, bufdepth = 4, torus = torus);
instance src[n] : ccl.pktsource(node = idx, nodes = n, rate = rate, size = size, pattern = pattern);
instance snk[n] : pcl.sink();

for i in 0 .. n-1 {
    src[i].out -> net.in[i];
    net.out[i] -> snk[i].in;
}
`

// runRemoteSweep measures every rate against a lsd daemon: submit the
// fabric with the point's rate define, stamp a session, run it, read the
// statistics snapshot back and fold the per-node sink counters into a
// sweep point. Up to cfg.Parallel points are in flight at once.
func runRemoteSweep(ctx context.Context, base string, cfg ccl.SweepCfg, rates []float64) ([]ccl.SweepPoint, error) {
	client := &simd.Client{Base: base}
	nodes := cfg.W * cfg.H
	measure := func(rate float64) (ccl.SweepPoint, error) {
		prog, err := client.SubmitProgram(ctx, simd.SubmitProgramRequest{
			Spec: remoteSpec,
			Name: "orion-remote.lss",
			Defines: map[string]any{
				"w": cfg.W, "h": cfg.H, "torus": cfg.Torus,
				"rate": rate, "size": cfg.Size, "pattern": cfg.Pattern,
			},
		})
		if err != nil {
			return ccl.SweepPoint{}, fmt.Errorf("rate %.3f: submit: %w", rate, err)
		}
		sess, err := client.NewSession(ctx, prog.ID, simd.CreateSessionRequest{Seed: cfg.Seed})
		if err != nil {
			return ccl.SweepPoint{}, fmt.Errorf("rate %.3f: session: %w", rate, err)
		}
		defer client.CloseSession(context.WithoutCancel(ctx), sess.ID)
		if _, err := client.Run(ctx, sess.ID, cfg.Warmup+cfg.Cycles); err != nil {
			return ccl.SweepPoint{}, fmt.Errorf("rate %.3f: run: %w", rate, err)
		}
		snap, err := client.Observe(ctx, sess.ID)
		if err != nil {
			return ccl.SweepPoint{}, fmt.Errorf("rate %.3f: observe: %w", rate, err)
		}
		var received int64
		for name, v := range snap.Counters {
			if strings.HasSuffix(name, ".received") {
				received += v
			}
		}
		var latSum float64
		var latN int64
		for name, hs := range snap.Histograms {
			if strings.HasSuffix(name, ".latency") {
				latSum += hs.Sum
				latN += hs.Count
			}
		}
		pt := ccl.SweepPoint{
			OfferedRate: rate,
			Throughput:  float64(received) / float64(snap.Cycles) / float64(nodes),
		}
		if latN > 0 {
			pt.MeanLatency = latSum / float64(latN)
		}
		return pt, nil
	}

	workers := cfg.Parallel
	if workers < 1 {
		workers = 4
	}
	if workers > len(rates) {
		workers = len(rates)
	}
	pts := make([]ccl.SweepPoint, len(rates))
	errs := make([]error, len(rates))
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		defer close(next)
		for i := range rates {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pts[i], errs[i] = measure(rates[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return pts[:i], err
		}
	}
	if err := ctx.Err(); err != nil {
		return pts, err
	}
	return pts, nil
}
