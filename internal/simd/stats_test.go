package simd

import (
	"context"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/obs"
)

// nanSource declares a histogram and, at cycle 3, hands it a NaN: a
// template bug the Step must report instead of storing.
type nanSource struct {
	core.Base
	out *core.Port
	h   *core.Histogram
}

func init() {
	core.Register(&core.Template{
		Name: "simdtest.nan",
		Doc:  "test-only source that observes a NaN sample at cycle 3",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			m := &nanSource{}
			m.Init(name, m)
			m.Checkpoint()
			m.h = m.Histogram("sample")
			m.out = m.AddOutPort("out")
			m.OnCycleStart(func() {
				v := float64(m.Now())
				if m.Now() == 3 {
					v = math.NaN()
				}
				m.h.Observe(v)
				m.out.Idle()
			})
			return m, nil
		},
	})
}

// TestNonFiniteSampleIsAnLSDError: a template that observes NaN ends the
// run with the model-error envelope naming the histogram, and the
// session's statistics still answer a document that decodes, holding the
// samples before the bad one.
func TestNonFiniteSampleIsAnLSDError(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	prog, err := client.SubmitProgram(ctx, SubmitProgramRequest{
		Spec: "instance n : simdtest.nan();\ninstance s : pcl.sink();\nn.out -> s.in;\n",
		Name: "nan.lss",
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Run(ctx, sess.ID, 20)
	if !isCode(err, CodeModelError) || !strings.Contains(err.Error(), "n.sample") || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("run into a NaN sample: err %v, want the %s envelope naming n.sample", err, CodeModelError)
	}
	snap, err := client.Observe(ctx, sess.ID)
	if err != nil {
		t.Fatalf("stats after the failed run: %v", err)
	}
	h, ok := snap.Histograms["n.sample"]
	if snap.Cycles != 3 || !ok || h.Count != 3 || h.Max != 2 {
		t.Fatalf("stats after the failed run: cycles %d, n.sample %+v (present %v); want cycle 3 and the samples 0, 1, 2",
			snap.Cycles, h, ok)
	}
}

// TestStatsDuringRun: one client runs 5 000 cycles of pipeline.lss while
// another polls the session's statistics. Every document decodes, the
// cycle count never goes back, and no counter exceeds its value in the
// final document: each poll reads the session at a cycle boundary.
func TestStatsDuringRun(t *testing.T) {
	spec, err := os.ReadFile("../../specs/pipeline.lss")
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	prog, err := client.SubmitProgram(ctx, SubmitProgramRequest{Spec: string(spec), Name: "pipeline.lss"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg     sync.WaitGroup
		runErr error
		done   = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		_, runErr = client.Run(ctx, sess.ID, 5000)
	}()
	var polls []obs.Snapshot
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		snap, err := client.Observe(ctx, sess.ID)
		if err != nil {
			t.Fatalf("poll %d: %v", len(polls), err)
		}
		polls = append(polls, snap)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	final, err := client.Observe(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Cycles != 5000 || len(final.Counters) == 0 {
		t.Fatalf("final document: cycle %d, %d counters", final.Cycles, len(final.Counters))
	}
	var last uint64
	for i, snap := range polls {
		if snap.Cycles < last {
			t.Fatalf("poll %d: cycle %d after %d", i, snap.Cycles, last)
		}
		last = snap.Cycles
		for name, v := range snap.Counters {
			if want, ok := final.Counters[name]; !ok || v > want {
				t.Fatalf("poll %d (cycle %d): %s = %d, final document has %d", i, snap.Cycles, name, v, want)
			}
		}
	}
	t.Logf("%d polls during the run, the last at cycle %d", len(polls), last)
}
