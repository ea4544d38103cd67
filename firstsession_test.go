package liberty_test

// firstsession_test.go pins the handoff at the top of the Figure 1 path:
// the netlist core.Compile validated is the program's first option-less
// session (internal/core/program_test.go counts the claims), and it is
// indistinguishable from a session stamped by re-running the recipe.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/pcl"
	"liberty/lse"
)

func statsDump(sim *core.Sim) string {
	var st bytes.Buffer
	sim.Stats().Dump(&st)
	return st.String()
}

func TestFirstSessionIsTheCompiledNetlist(t *testing.T) {
	t.Run("lss.Load elaborates once", func(t *testing.T) {
		elabs := 0
		reg := lse.NewRegistry()
		reg.Register(&lse.Template{Name: "t.src", Build: func(b *lse.Builder, name string, p lse.Params) (lse.Instance, error) {
			elabs++
			return pcl.NewSource(name, p)
		}})
		reg.Register(&lse.Template{Name: "t.snk", Build: func(b *lse.Builder, name string, p lse.Params) (lse.Instance, error) {
			return pcl.NewSink(name, p)
		}})
		sim, err := lse.LoadLSS("instance s : t.src(count = 5);\ninstance k : t.snk();\ns.out -> k.in;",
			lse.WithRegistry(reg), lse.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if elabs != 1 {
			t.Fatalf("LoadLSS elaborated the spec %d times, want 1", elabs)
		}
		if err := sim.Run(20); err != nil {
			t.Fatal(err)
		}
		if got := sim.Stats().CounterValue("k.received"); got != 5 {
			t.Fatalf("handed-over session delivered %d, want 5", got)
		}
		if _, err := sim.Program().NewSim(); err != nil || elabs != 2 {
			t.Fatalf("second session: err %v after %d elaborations, want a re-elaboration", err, elabs)
		}
	})

	// The handed-over session, a re-stamped one and the reference resolve
	// every shipped spec identically, cycle by cycle.
	t.Run("specs", func(t *testing.T) {
		matches, err := filepath.Glob("specs/*.lss")
		if err != nil || len(matches) == 0 {
			t.Fatalf("no specs found: %v", err)
		}
		const cycles = 300
		for _, path := range matches {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lse.CompileLSS(string(src), lse.WithSeed(1))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			handed, err := prog.NewSim()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			stamped, err := prog.NewSim()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			ref, err := lse.LoadLSS(string(src), lse.WithSeed(1), lse.WithScheduler(lse.SchedulerSequential))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			want, wantStats := stepHashes(t, ref, cycles), statsDump(ref)
			for name, sim := range map[string]*core.Sim{"handed-over": handed, "re-stamped": stamped} {
				for c, h := range stepHashes(t, sim, cycles) {
					if h != want[c] {
						t.Fatalf("%s: %s session diverges from the reference at cycle %d", path, name, c)
					}
				}
				if got := statsDump(sim); got != wantStats {
					t.Fatalf("%s: %s session's statistics diverge:\n--- reference\n%s--- %s\n%s", path, name, wantStats, name, got)
				}
			}
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		const snapAt, total = 60, 140
		prog := mustCompile(t, checkpointAssemble, core.WithSeed(7))
		handed, err := prog.NewSim()
		if err != nil {
			t.Fatal(err)
		}
		stepHashes(t, handed, snapAt)
		var buf bytes.Buffer
		if err := handed.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := prog.Restore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		stamped, err := prog.NewSim()
		if err != nil {
			t.Fatal(err)
		}
		want := stepHashes(t, stamped, total)
		for i, h := range stepHashes(t, restored, total-snapAt) {
			if h != want[snapAt+i] {
				t.Fatalf("restored run diverges from the uninterrupted one at cycle %d", snapAt+i)
			}
		}
		if got, want := statsDump(restored), statsDump(stamped); got != want {
			t.Fatalf("restored statistics diverge:\n--- uninterrupted\n%s--- restored\n%s", want, got)
		}
	})
}

// resolvedChanges counts the VCD value changes that carry a resolved
// status (b10 = yes, b01 = no) rather than the cycle-boundary unknown.
func resolvedChanges(vcd string) int {
	n := 0
	for _, line := range strings.Split(vcd, "\n") {
		if strings.HasPrefix(line, "b10 ") || strings.HasPrefix(line, "b01 ") {
			n++
		}
	}
	return n
}

// TestVCDFollowsTheRunningSession: the tracer handed to a compile keys its
// variables by connection id, so it records whichever session of the
// program is stepped — the one LoadLSS returns, a later stamp, and the one
// a built lsc runs.
func TestVCDFollowsTheRunningSession(t *testing.T) {
	src, err := os.ReadFile("specs/quickstart.lss")
	if err != nil {
		t.Fatal(err)
	}
	var vcd bytes.Buffer
	sim, err := lse.LoadLSS(string(src), lse.WithTracer(lse.NewVCDTracer(&vcd)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	out := vcd.String()
	for _, want := range []string{"$var wire 2", "c0_data", "$enddefinitions", "#0", "#2", "b10 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("LoadLSS: VCD missing %q:\n%s", want, out[:min(len(out), 600)])
		}
	}
	first := resolvedChanges(out)
	if first == 0 {
		t.Fatalf("LoadLSS: no resolved value change in 3 cycles:\n%s", out)
	}
	second, err := sim.Program().NewSim()
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Run(3); err != nil {
		t.Fatal(err)
	}
	if got := resolvedChanges(vcd.String()) - first; got != first {
		t.Fatalf("second session traced %d resolved value changes, the first %d", got, first)
	}

	file := filepath.Join(t.TempDir(), "q.vcd")
	if out, err := exec.Command(buildLSC(t), "-cycles", "3", "-vcd", file, "specs/quickstart.lss").CombinedOutput(); err != nil {
		t.Fatalf("lsc -vcd: %v\n%s", err, out)
	}
	written, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := resolvedChanges(string(written)); got != first {
		t.Fatalf("lsc -vcd wrote %d resolved value changes, the library %d:\n%s", got, first, written)
	}
}
