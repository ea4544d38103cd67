// Command servesmoke is the lsd daemon's end-to-end smoke test: it
// spawns a real lsd process, drives one full experiment over the wire —
// submit a spec, verify the resubmission cache-hits, stamp a session,
// run it, observe statistics, snapshot, restore the snapshot into a
// second session and check both agree — checks the daemon's expvar page
// carries the memstats the benchmark reads, then interrupts the daemon
// and verifies it exits cleanly. CI runs it via `make serve-smoke`.
//
// Usage:
//
//	servesmoke [-lsd bin/lsd] [-cycles 200]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"syscall"
	"time"

	"liberty/lse"
)

const smokeSpec = `# servesmoke fabric
instance src : pcl.source(rate = 0.7);
instance q   : pcl.queue(capacity = 4);
instance dly : pcl.delay(latency = 2);
instance snk : pcl.sink();

src.out -> q.in;
q.out   -> dly.in;
dly.out -> snk.in;
`

func main() {
	lsd := flag.String("lsd", "bin/lsd", "path to the lsd binary under test")
	cycles := flag.Uint64("cycles", 200, "cycles to simulate in the smoke session")
	flag.Parse()

	if err := run(*lsd, *cycles); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func run(lsd string, cycles uint64) error {
	// Reserve a port, release it, hand it to the daemon. The gap is racy
	// in principle; for a smoke test on a CI box it is fine.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(lsd, "-addr", addr)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", lsd, err)
	}
	defer cmd.Process.Kill()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	client := &lse.ServeClient{Base: "http://" + addr}
	if err := waitUp(ctx, client); err != nil {
		return fmt.Errorf("daemon never came up: %w (stderr: %s)", err, stderr.String())
	}

	// Submit, and dedupe on resubmission.
	prog, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{Spec: smokeSpec, Name: "smoke.lss"})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	again, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{Spec: smokeSpec, Name: "smoke.lss"})
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	if !again.CacheHit || again.ID != prog.ID {
		return fmt.Errorf("resubmission missed the program cache: %+v", again)
	}

	// Stamp, step, run, observe.
	sess, err := client.NewSession(ctx, prog.ID, lse.CreateSessionRequest{Seed: 1})
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	if st, err := client.Step(ctx, sess.ID, 0); err != nil || st.Cycle != 1 {
		return fmt.Errorf("step: landed at %+v (err %v)", st, err)
	}
	if st, err := client.Run(ctx, sess.ID, cycles-1); err != nil || st.Cycle != cycles {
		return fmt.Errorf("run: landed at %+v (err %v)", st, err)
	}
	snap, err := client.Observe(ctx, sess.ID)
	if err != nil {
		return fmt.Errorf("observe: %w", err)
	}
	if snap.Cycles != cycles || snap.Counters["snk.received"] == 0 {
		return fmt.Errorf("observation wrong: cycles=%d received=%d", snap.Cycles, snap.Counters["snk.received"])
	}
	// A session's statistics are served at observe only.
	var env struct {
		Error *lse.ServeError `json:"error"`
	}
	if status, err := get(ctx, client.Base+"/v1/sessions/"+sess.ID+"/metrics", &env); err != nil ||
		status != http.StatusNotFound || env.Error == nil || env.Error.Code != "LSD002" {
		return fmt.Errorf("per-session /metrics answered %d %+v (err %v), want 404 LSD002", status, env.Error, err)
	}
	// The benchmark takes lsd's allocation per job from the runtime's
	// memstats on the expvar page.
	var vars map[string]json.RawMessage
	if status, err := get(ctx, client.Base+"/debug/vars", &vars); err != nil || status != http.StatusOK || vars["memstats"] == nil {
		return fmt.Errorf("/debug/vars answered %d without memstats (err %v)", status, err)
	}

	// Snapshot over the wire, restore into a second session, and both
	// sessions must observe identical statistics.
	ckpt, err := client.Snapshot(ctx, sess.ID)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	restored, err := client.RestoreSession(ctx, prog.ID, bytes.NewReader(ckpt))
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if restored.Cycle != cycles {
		return fmt.Errorf("restored session at cycle %d, want %d", restored.Cycle, cycles)
	}
	restoredObs, err := client.Observe(ctx, restored.ID)
	if err != nil {
		return fmt.Errorf("observe restored: %w", err)
	}
	if !reflect.DeepEqual(restoredObs.Counters, snap.Counters) {
		return fmt.Errorf("restored counters diverged:\n%v\nvs\n%v", restoredObs.Counters, snap.Counters)
	}

	// Interrupt the daemon; it must exit cleanly (the no-shutdown-path
	// fix) within the drain window.
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		return fmt.Errorf("interrupt: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly: %w (stderr: %s)", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		return fmt.Errorf("daemon did not exit within 10s of SIGINT (stderr: %s)", stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("shut down cleanly")) {
		return fmt.Errorf("daemon exited without its clean-shutdown message (stderr: %s)", stderr.String())
	}
	return nil
}

// get fetches url and decodes its JSON body into out, returning the
// HTTP status.
func get(ctx context.Context, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// waitUp polls the daemon's program listing until it answers.
func waitUp(ctx context.Context, client *lse.ServeClient) error {
	for {
		resp, err := http.Get(client.Base + "/v1/programs")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}
