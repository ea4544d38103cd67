package liberty_test

// firstsession_test.go pins the handoff at the top of the Figure 1 path:
// the netlist core.Compile validated is the program's first option-less
// session (internal/core/program_test.go counts the claims). That it runs
// as a re-stamped session does, on every model, is a differential path.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"liberty/internal/pcl"
	"liberty/lse"
)

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

	// The handed-over session's snapshot at k restores into a session
	// that runs on as a re-stamped one does from k.
	t.Run("snapshot", func(t *testing.T) {
		m := row(t, "ckpt")
		_, prog := programs(t, m)
		k := m.cycles / 2
		_, handed := play(t, prog, nil, false, k, nil)
		snap := snapshot(t, handed, "")
		want, _ := play(t, prog, nil, true, m.cycles, nil)
		got, _ := play(t, prog, snap, true, m.cycles, nil)
		same(t, "handed-over session's snapshot restored", want, k, got, false)
	})
}

// resolvedChanges counts the VCD value changes that carry a resolved
// status (b10 = yes, b01 = no) rather than the cycle-boundary unknown.
func resolvedChanges(vcd string) int {
	return strings.Count(vcd, "\nb10 ") + strings.Count(vcd, "\nb01 ")
}

// TestVCDFollowsTheRunningSession: the tracer handed to a compile keys its
// variables by connection id, so it records whichever session of the
// program is stepped — the one LoadLSS returns, a later stamp, and the one
// a built lsc runs, which fails when it cannot write the waveform.
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

	bin, file := buildLSC(t), filepath.Join(t.TempDir(), "q.vcd")
	if out, err := exec.Command(bin, "-cycles", "3", "-vcd", file, "specs/quickstart.lss").CombinedOutput(); err != nil {
		t.Fatalf("lsc -vcd: %v\n%s", err, out)
	}
	written, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := resolvedChanges(string(written)); got != first {
		t.Fatalf("lsc -vcd wrote %d resolved value changes, the library %d:\n%s", got, first, written)
	}

	// A waveform or signal trace lsc cannot write ends the run with exit
	// status 1, naming the error, not a silent success.
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full:", err)
	}
	defer full.Close()
	vcd.Reset()
	run := exec.Command(bin, "-cycles", "5", "-vcd", "/dev/full", "specs/quickstart.lss")
	run.Stdout, run.Stderr = &vcd, &vcd
	if err := run.Run(); run.ProcessState.ExitCode() != 1 || !strings.Contains(vcd.String(), "lsc: writing /dev/full:") {
		t.Errorf("lsc -vcd /dev/full: %v, want exit status 1 and the write error:\n%s", err, vcd.String())
	}
	run = exec.Command(bin, "-cycles", "5", "-trace", "specs/quickstart.lss")
	run.Stderr = full
	if err := run.Run(); run.ProcessState.ExitCode() != 1 {
		t.Errorf("lsc -trace with a full stderr: %v, want exit status 1", err)
	}
}
