// Command lsd is the Liberty simulation daemon: the structural models of
// the paper served as a network service. One daemon compiles each
// submitted specification exactly once — submissions dedupe by
// spec-hash+options into an LRU cache of compiled programs — and stamps
// any number of concurrent experiment sessions from the cached programs,
// each independently steppable, observable, checkpointable over HTTP and
// restorable bit-identically.
//
// Usage:
//
//	lsd [-addr :8123] [-cache 16] [-sessions 1024] [-step-workers 0]
//	    [-park-after 0] [-ttl 0] [-checkpoint-dir DIR]
//
// Flags:
//
//	-addr            HTTP listen address (default :8123)
//	-cache           compiled-program LRU capacity
//	-sessions        concurrent session cap (503 beyond it)
//	-step-workers    concurrent step/run bound (0 = 2×GOMAXPROCS)
//	-park-after      idle duration before a session is checkpointed to
//	                 disk and its simulator released (0 = never)
//	-ttl             idle duration before a session is evicted (0 = never)
//	-checkpoint-dir  where parked sessions' checkpoints live
//	                 (default: a fresh temp directory)
//
// A submitted program's options select the engine ("scheduler": "sparse",
// the default, or "sequential", the reference) and strict analysis
// ("strict": "warning"); any other value answers 400 LSD001 naming the
// valid ones, before anything compiles.
//
// A quick-start walkthrough with curl lives in the README's "Simulation
// as a service" section. SIGINT/SIGTERM shut the daemon down gracefully:
// the listener drains in-flight requests, sessions release their worker
// pools, and parked checkpoints are removed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"liberty/internal/simd"
)

func main() {
	addr := flag.String("addr", ":8123", "HTTP listen address")
	cache := flag.Int("cache", 16, "compiled-program LRU capacity")
	sessions := flag.Int("sessions", 1024, "concurrent session cap")
	stepWorkers := flag.Int("step-workers", 0, "concurrent step/run bound (0 = 2×GOMAXPROCS)")
	parkAfter := flag.Duration("park-after", 0, "idle duration before checkpointing a session to disk (0 = never)")
	ttl := flag.Duration("ttl", 0, "idle duration before evicting a session (0 = never)")
	ckptDir := flag.String("checkpoint-dir", "", "parked-session checkpoint directory (default: fresh temp dir)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: lsd [flags]")
		flag.Usage()
		os.Exit(2)
	}

	srv, err := simd.NewServer(simd.Config{
		ProgramCache:  *cache,
		MaxSessions:   *sessions,
		StepWorkers:   *stepWorkers,
		ParkAfter:     *parkAfter,
		SessionTTL:    *ttl,
		CheckpointDir: *ckptDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsd:", err)
		os.Exit(1)
	}
	defer srv.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "lsd: serving /v1 on %s (cache %d programs, %d sessions max)\n",
		*addr, *cache, *sessions)
	start := time.Now()
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "lsd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "lsd: shut down cleanly after %s\n", time.Since(start).Round(time.Millisecond))
}
