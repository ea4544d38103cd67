package liberty_test

// serve_test.go covers the service surface re-exported through the lse
// facade and the PR's acceptance benchmark: stamping sessions over HTTP
// from a cached compiled program versus compiling per submission.

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"liberty/lse"
)

// serveMeshSpec is the 4x4 on-chip network the stamp benchmark serves —
// the same fabric as specs/mesh.lss, heavy enough that compile-per-point
// and stamp-per-point are visibly different regimes.
const serveMeshSpec = `let w = 4;
let h = 4;
let n = w * h;

instance net    : ccl.mesh(w = w, h = h, bufdepth = 4);
instance src[n] : ccl.pktsource(node = idx, nodes = n, rate = 0.1, size = 4);
instance snk[n] : pcl.sink();

for i in 0 .. n-1 {
    src[i].out -> net.in[i];
    net.out[i] -> snk[i].in;
}
`

// newServeBench starts a facade server over real HTTP.
func newServeBench(tb testing.TB) *lse.ServeClient {
	tb.Helper()
	srv, err := lse.NewServer(lse.ServerConfig{MaxSessions: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &lse.ServeClient{Base: hs.URL, HTTP: hs.Client()}
}

// TestServeFacade pins the lse re-exports end to end: submit through the
// facade types, stamp, step, observe, and match on the stable error
// codes.
func TestServeFacade(t *testing.T) {
	client := newServeBench(t)
	ctx := context.Background()
	prog, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{
		Spec: serveMeshSpec, Name: "mesh.lss",
	})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Instances == 0 || prog.Conns == 0 || prog.Fingerprint == "" {
		t.Fatalf("program info incomplete: %+v", prog)
	}
	sess, err := client.NewSession(ctx, prog.ID, lse.CreateSessionRequest{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, sess.ID, 50); err != nil {
		t.Fatal(err)
	}
	snap, err := client.Observe(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cycles != 50 {
		t.Fatalf("observed %d cycles, want 50", snap.Cycles)
	}
	_, err = client.NewSession(ctx, "p0000000000000000", lse.CreateSessionRequest{})
	var apiErr *lse.ServeError
	if !errorAs(err, &apiErr) || apiErr.Code != lse.ErrorCode("LSD002") {
		t.Fatalf("unknown program answered %v, want LSD002", err)
	}
}

// errorAs is errors.As without importing errors twice in this file's
// minimal surface.
func errorAs(err error, target *(*lse.ServeError)) bool {
	e, ok := err.(*lse.ServeError)
	if ok {
		*target = e
	}
	return ok
}

// benchPoint feeds the compile sub-benchmark fresh cache keys across
// sub-runs so every submission truly compiles.
var benchPoint atomic.Int64

// BenchmarkSessionStampHTTP is the service-side Program/State payoff,
// measured as one parameter-sweep point each way: compile+stamp is what
// a cacheless server pays per point (a fresh define defeats the cache,
// so every session compiles its own program first), stamp is the served
// path (submission dedupes onto the cached program — pointer identity,
// pinned by the simd tests — and the session pays re-assembly only, no
// parse, Tarjan, levelization or lane election). submit-hit isolates
// the dedup round trip itself.
func BenchmarkSessionStampHTTP(b *testing.B) {
	client := newServeBench(b)
	ctx := context.Background()
	// warm re-submits the benchmark spec untimed: the compile sub-bench
	// churns the LRU with fresh keys, so each sub-bench re-anchors the
	// cached program (same key, hence same id) before its timed loop.
	warm := func(b *testing.B) lse.ProgramInfo {
		b.Helper()
		prog, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{Spec: serveMeshSpec})
		if err != nil {
			b.Fatal(err)
		}
		return prog
	}

	b.Run("compile+stamp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{
				Spec:    serveMeshSpec,
				Defines: map[string]any{"point": benchPoint.Add(1)},
			})
			if err != nil {
				b.Fatal(err)
			}
			sess, err := client.NewSession(ctx, prog.ID, lse.CreateSessionRequest{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if err := client.CloseSession(ctx, sess.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("submit-hit", func(b *testing.B) {
		prog := warm(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			info, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{Spec: serveMeshSpec})
			if err != nil {
				b.Fatal(err)
			}
			if !info.CacheHit || info.ID != prog.ID {
				b.Fatalf("submission missed the cache: %+v", info)
			}
		}
	})
	b.Run("stamp", func(b *testing.B) {
		prog := warm(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess, err := client.NewSession(ctx, prog.ID, lse.CreateSessionRequest{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if err := client.CloseSession(ctx, sess.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}
