// Command benchpairs measures a change against a parent revision the way
// the choosing-metrics guide asks a gain to be shown: N pairs of runs of
// one end-to-end workload, parent and change side by side, alternating
// which side goes first, each side built from its own checkout by that
// checkout's bench/run.sh. It prints every pair, then per end-to-end
// metric each side's median and quartiles, the change's wins, and whether
// the gain rule holds (wins on at least nine tenths of the pairs and a
// median difference beyond the parent's interquartile distance).
//
// Usage (from the repository root; make bench-e2e-pairs wraps it):
//
//	go run ./tools/benchpairs -w mesh_busy -parent HEAD~1 [-n 10] [-seconds 10]
//
// The parent is cloned into a temporary directory, removed on exit — also
// on SIGINT or SIGTERM, which first stop the run in progress and every
// process it started; the change side is the working tree as it stands.
// Metric names and directions come from BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	workload := flag.String("w", "", "workload name (see BENCHMARK.json)")
	parent := flag.String("parent", "", "parent revision to compare the working tree against")
	n := flag.Int("n", 10, "pairs of runs")
	seconds := flag.Int("seconds", 10, "seconds per run")
	flag.Parse()
	if *workload == "" || *parent == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *workload, *parent, *n, *seconds)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, workload, parent string, n, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var manifest struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	change, err := os.Getwd()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// go build leaves its work files behind when interrupted; keep them
	// in tmp too.
	goTmp := filepath.Join(tmp, "gotmp")
	if err := os.Mkdir(goTmp, 0o755); err != nil {
		return err
	}
	parentDir := filepath.Join(tmp, "parent")
	for _, args := range [][]string{
		{"clone", "-q", change, parentDir},
		{"-C", parentDir, "checkout", "-q", "--detach", parent},
	} {
		if out, err := command(ctx, "git", args...).CombinedOutput(); err != nil {
			return fmt.Errorf("git %v: %v\n%s", args, err, out)
		}
	}

	sides := [2]struct{ name, dir string }{{"parent", parentDir}, {"change", change}}
	values := map[string]*[2][]float64{} // metric -> per side, per pair
	for _, m := range manifest.EndToEnd {
		values[m.Name] = &[2][]float64{}
	}
	for i := 1; i <= n; i++ {
		order := [2]int{0, 1}
		if i%2 == 0 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			res, err := measure(ctx, sides[side].dir, goTmp, workload, i, seconds)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i, sides[side].name, err)
			}
			fmt.Printf("pair %2d %-6s correct=%v failed=%d/%d", i, sides[side].name, res.Correct, res.Failed, res.Attempted)
			for _, m := range manifest.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name][side] = append(values[m.Name][side], v)
				fmt.Printf("  %s=%.4g", m.Name, v)
			}
			fmt.Println()
		}
	}

	fmt.Printf("\n%s, %d pairs, change vs %s — median [q1, q3]\n", workload, n, parent)
	for _, m := range manifest.EndToEnd {
		p, c := values[m.Name][0], values[m.Name][1]
		wins, losses := 0, 0
		for i := range p {
			better := c[i] < p[i]
			if m.Better == "higher" {
				better = c[i] > p[i]
			}
			switch {
			case c[i] == p[i]:
			case better:
				wins++
			default:
				losses++
			}
		}
		pq, cq := quartiles(p), quartiles(c)
		diff := cq[1] - pq[1]
		improved := diff < 0
		if m.Better == "higher" {
			improved = diff > 0
		}
		verdict := "no gain shown"
		if improved && 10*wins >= 9*n && math.Abs(diff) > pq[2]-pq[0] {
			verdict = "gain"
		}
		fmt.Printf("  %-18s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g] %s  %+.1f%%  wins %d/%d losses %d  %s\n",
			m.Name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], m.Unit, 100*diff/pq[1], wins, n, losses, verdict)
	}
	return nil
}

// command is exec.CommandContext for a child that starts children of its
// own (bench/run.sh builds with go, then lsbench starts lsd). The child
// leads a new process group, and cancelling ctx interrupts the whole
// group: go removes its work files, lsbench exits, lsd shuts down. A
// leader still running 5 s later is killed.
func command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGINT) }
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// measure runs one benchmark run from dir's own bench/run.sh, its go
// builds working in goTmp, and decodes its one JSON line.
func measure(ctx context.Context, dir, goTmp, workload string, seed, seconds int) (runResult, error) {
	cmd := command(ctx, "bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOTMPDIR="+goTmp)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, err
	}
	var res runResult
	if err := json.Unmarshal(out, &res); err != nil {
		return runResult{}, fmt.Errorf("undecodable result %q: %w", out, err)
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile of v by
// linear interpolation.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
