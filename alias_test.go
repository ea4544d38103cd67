package liberty_test

// alias_test.go pins the one-release compatibility contract of the
// removed multi-worker engines (DESIGN.md Appendix H): every way a user
// could still ask for them — the lse names, lsc's flags, the /v1 wire
// fields — builds, runs the default engine, says so, and computes what
// -scheduler auto computes.

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"liberty/lse"
)

func TestRemovedEngineAliases(t *testing.T) {
	src, err := os.ReadFile("specs/mesh.lss")
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 300
	auto := runSpecUnder(t, string(src), cycles, lse.WithScheduler(lse.SchedulerAuto))

	for _, tc := range []struct {
		name string
		opts []lse.BuildOption
	}{
		{"lse.SchedulerParallel", []lse.BuildOption{lse.WithScheduler(lse.SchedulerParallel)}},
		{"lse.SchedulerPartitioned+knobs", []lse.BuildOption{lse.WithScheduler(lse.SchedulerPartitioned),
			lse.WithWorkers(8), lse.WithShards(4), lse.WithParallelThreshold(1)}},
	} {
		sim, err := lse.LoadLSS(string(src), tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sim.Scheduler(); got != lse.SchedulerSparse {
			t.Errorf("%s: session runs %s, want the default engine (sparse)", tc.name, got)
		}
		diffRuns(t, "mesh", tc.name, auto, runSpecUnder(t, string(src), cycles, tc.opts...), true)
	}

	t.Run("lsc", func(t *testing.T) {
		bin := filepath.Join(t.TempDir(), "lsc")
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/lsc").CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/lsc: %v\n%s", err, out)
		}
		lsc := func(args ...string) (stdout, stderr string) {
			t.Helper()
			var o, e bytes.Buffer
			cmd := exec.Command(bin, append(args, "-cycles", "300", "-seed", "1", "-stats-json", "specs/mesh.lss")...)
			cmd.Stdout, cmd.Stderr = &o, &e
			if err := cmd.Run(); err != nil {
				t.Fatalf("lsc %v: %v\n%s", args, err, e.String())
			}
			return o.String(), e.String()
		}
		want, quiet := lsc("-scheduler", "auto")
		got, noted := lsc("-scheduler", "partitioned", "-workers", "2")
		if got != want {
			t.Error("lsc -scheduler partitioned -workers 2: statistics differ from -scheduler auto")
		}
		const note = "removed in this release; running auto"
		if n := strings.Count(noted, note); n != 1 {
			t.Errorf("lsc -scheduler partitioned -workers 2 printed the removal note %d times, want 1:\n%s", n, noted)
		}
		if strings.Contains(quiet, note) {
			t.Errorf("lsc -scheduler auto printed the removal note:\n%s", quiet)
		}
		if !strings.Contains(noted, "(sparse scheduler)") {
			t.Errorf("lsc did not report the engine actually used:\n%s", noted)
		}
	})

	t.Run("wire", func(t *testing.T) {
		client := newServeBench(t)
		ctx := context.Background()
		run := func(o lse.ProgramBuildOptions) (lse.ProgramInfo, lse.Snapshot) {
			t.Helper()
			prog, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{Spec: string(src), Options: o})
			if err != nil {
				t.Fatalf("%+v: %v", o, err)
			}
			ss, err := client.NewSession(ctx, prog.ID, lse.CreateSessionRequest{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.Run(ctx, ss.ID, cycles); err != nil {
				t.Fatal(err)
			}
			snap, err := client.Observe(ctx, ss.ID)
			if err != nil {
				t.Fatal(err)
			}
			return prog, snap
		}
		autoProg, want := run(lse.ProgramBuildOptions{Scheduler: "auto"})
		prog, got := run(lse.ProgramBuildOptions{Scheduler: "partitioned", Workers: 2})
		if prog.Scheduler != "sparse" || prog.ID != autoProg.ID {
			t.Errorf("wire alias compiled %s as %s, want auto's program %s (sparse)", prog.ID, prog.Scheduler, autoProg.ID)
		}
		if !reflect.DeepEqual(got.Counters, want.Counters) || !reflect.DeepEqual(got.Histograms, want.Histograms) {
			t.Error("wire alias session's statistics differ from auto's")
		}
	})
}
