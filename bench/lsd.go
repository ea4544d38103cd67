package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"syscall"
	"time"

	core "liberty/internal/core"
)

const (
	lsdClients   = 2   // closed loops against the daemon, one connection each (= nproc of the reference host)
	lsdRunCycles = 200 // cycles per run request
	lsdPlanLen   = 20  // distinct round trips the seed generates
)

// trip is one generated round trip. Every fifth uses the pcl-only pipeline
// spec and adds snapshot -> restore -> run -> observe: only pcl templates
// can be checkpointed, and a request that cannot succeed has no place in
// the failure count. Every tenth submits a never-seen variant of the mesh
// spec, so the program cache misses, compiles, and — past 16 variants —
// evicts.
type trip struct {
	Spec        string `json:"spec"`
	Miss        bool   `json:"miss"`
	Checkpoint  bool   `json:"checkpoint"`
	SessionSeed int64  `json:"session_seed"`
}

func lsdPlan(seed int64) []trip {
	plan := make([]trip, lsdPlanLen)
	for k := range plan {
		plan[k] = trip{Spec: "mesh", Miss: k%10 == 3, SessionSeed: seed*1000 + int64(k%4)}
		if k%5 == 4 {
			plan[k].Spec, plan[k].Checkpoint = "pipeline", true
		}
	}
	return plan
}

// opSample is one HTTP request as the client saw it.
type opSample struct {
	op    string
	ms    float64
	bytes int
	err   bool
}

// lsdRoundtrip drives a real lsd child process over loopback.
type lsdRoundtrip struct {
	e     *env
	specs map[string]string
	plan  []trip

	cmd    *exec.Cmd
	stderr bytes.Buffer
	base   string
	http   *http.Client
}

func newLSDRoundtrip(e *env) workload { return &lsdRoundtrip{e: e} }

func (w *lsdRoundtrip) variants() int { return lsdPlanLen }
func (w *lsdRoundtrip) clients() int  { return lsdClients }
func (w *lsdRoundtrip) pid() int      { return w.cmd.Process.Pid }

// mem reads the daemon's runtime.MemStats from its expvar page.
func (w *lsdRoundtrip) mem() (memSample, error) {
	var page struct {
		Memstats memSample `json:"memstats"`
	}
	raw, err := w.call(nil, nil, "vars", http.MethodGet, "/debug/vars", nil, "")
	if err == nil {
		err = json.Unmarshal(raw, &page)
	}
	return page.Memstats, err
}

// setUp loads the inputs, starts lsd with its default flags on a free
// loopback port, waits until it answers, submits both specs so the first
// job finds them cached, and makes one round trip of each kind.
func (w *lsdRoundtrip) setUp() error {
	if w.e.lsd == "" {
		return errors.New("no lsd binary given (-lsd); start lsbench through bench/run.sh, which builds it")
	}
	var err error
	if w.specs, err = loadSpecs(w.e.dir); err != nil {
		return err
	}
	w.plan = lsdPlan(w.e.seed)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	w.base = "http://" + addr
	w.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: lsdClients}, Timeout: 60 * time.Second}
	w.stderr.Reset()
	w.cmd = exec.Command(w.e.lsd, "-addr", addr)
	w.cmd.Stderr = &w.stderr
	if err := w.cmd.Start(); err != nil {
		return err
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, err = w.call(nil, nil, "ready", http.MethodGet, "/v1/programs", nil, ""); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lsd not ready: %v; stderr: %s", err, w.stderr.String())
		}
	}
	for _, spec := range []string{"mesh", "pipeline"} {
		if _, _, err := w.submit(nil, nil, "submit_miss", spec, nil); err != nil {
			return err
		}
	}
	// One plain trip and one checkpoint trip, so every handler, the JSON
	// coders and the connection pool have run once before timing starts.
	for _, i := range []int{0, 4} {
		if r := w.job(i, nil); r.err != nil {
			return fmt.Errorf("warm-up trip %d: %w", i, r.err)
		}
	}
	return nil
}

// tearDown stops the daemon and waits for it to exit.
func (w *lsdRoundtrip) tearDown() {
	if w.cmd == nil || w.cmd.Process == nil {
		return
	}
	_ = w.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	done := make(chan struct{})
	go func() {
		_ = w.cmd.Wait() // the exit status of a stopped daemon says nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = w.cmd.Process.Kill()
		<-done
	}
	w.http.CloseIdleConnections()
	w.cmd = nil
}

// call issues one request, records it on r (and as a span on jt) under op,
// and returns the body of a 2xx answer; anything else is an error.
func (w *lsdRoundtrip) call(jt *jobTrace, r *jobResult, op, method, path string, body []byte, ctype string) (raw []byte, err error) {
	o := jt.begin("simd." + op)
	defer func() {
		ms := float64(jt.end(o, int64(len(raw))).Nanoseconds()) / 1e6
		if r != nil {
			r.ops = append(r.ops, opSample{op, ms, len(raw), err != nil})
		}
	}()
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := w.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return raw, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// callJSON posts in as JSON and decodes the answer into out.
func (w *lsdRoundtrip) callJSON(jt *jobTrace, r *jobResult, op, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	raw, err := w.call(jt, r, op, method, path, body, "application/json")
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

func (w *lsdRoundtrip) submit(jt *jobTrace, r *jobResult, op, spec string, defines map[string]any) (id string, hit bool, err error) {
	var info struct {
		ID       string `json:"id"`
		CacheHit bool   `json:"cache_hit"`
	}
	err = w.callJSON(jt, r, op, http.MethodPost, "/v1/programs", map[string]any{
		"spec": w.specs[spec], "name": spec + ".lss", "defines": defines,
	}, &info)
	return info.ID, info.CacheHit, err
}

// observe fetches a session's statistics and returns their digest.
func (w *lsdRoundtrip) observe(jt *jobTrace, r *jobResult, op string, keep bool, session string) error {
	raw, err := w.call(jt, r, op, http.MethodGet, "/v1/sessions/"+session+"/observe", nil, "")
	if err != nil {
		return err
	}
	d, err := parseStats(raw)
	if err != nil {
		return err
	}
	r.digests = append(r.digests, d.digest())
	if keep {
		r.docs = append(r.docs, raw)
	}
	return nil
}

func (w *lsdRoundtrip) runSession(jt *jobTrace, r *jobResult, op, session string) error {
	var ran struct {
		Ran uint64 `json:"ran"`
	}
	err := w.callJSON(jt, r, op, http.MethodPost, "/v1/sessions/"+session+"/run",
		map[string]any{"cycles": lsdRunCycles}, &ran)
	if err == nil && ran.Ran != lsdRunCycles {
		err = fmt.Errorf("session %s ran %d cycles, want %d", session, ran.Ran, lsdRunCycles)
	}
	r.cycles += ran.Ran
	return err
}

func (w *lsdRoundtrip) newSession(jt *jobTrace, r *jobResult, op, path string, body []byte, ctype string) (string, error) {
	var info struct {
		ID string `json:"id"`
	}
	raw, err := w.call(jt, r, op, http.MethodPost, path, body, ctype)
	if err == nil {
		err = json.Unmarshal(raw, &info)
	}
	return info.ID, err
}

// job is one round trip: submit -> session -> run -> observe -> close,
// with the checkpoint leg in between on the pipeline spec.
func (w *lsdRoundtrip) job(i int, jt *jobTrace) (r jobResult) {
	t := w.plan[i%len(w.plan)]
	keep := keepsDocs(i, len(w.plan))
	metricsQuery := ""
	if jt != nil {
		metricsQuery = "?metrics=true"
	}
	r.err = func() error {
		// Requests of a checkpoint trip are recorded under their own names:
		// the pipeline spec is far smaller than the mesh, and mixing the
		// two would make every per-endpoint median bimodal.
		sfx := ""
		if t.Checkpoint {
			sfx = "_ckpt"
		}
		op, defines := "submit_hit", map[string]any(nil)
		if t.Miss {
			// A define the spec never reads: a distinct cache key, the same model.
			op, defines = "submit_miss", map[string]any{"variant": w.e.seed*1_000_000 + int64(i)}
		}
		prog, hit, err := w.submit(jt, &r, op+sfx, t.Spec, defines)
		if err != nil {
			return err
		}
		if hit == t.Miss {
			return fmt.Errorf("submit of %s: cache_hit=%v, want %v", t.Spec, hit, !t.Miss)
		}
		body, _ := json.Marshal(map[string]any{"seed": t.SessionSeed, "metrics": jt != nil})
		session, err := w.newSession(jt, &r, "session"+sfx, "/v1/programs/"+prog+"/sessions", body, "application/json")
		if err != nil {
			return err
		}
		sessions := []string{session}
		if err := w.runSession(jt, &r, "run"+sfx, session); err != nil {
			return err
		}
		if err := w.observe(jt, &r, "observe"+sfx, keep, session); err != nil {
			return err
		}
		if t.Checkpoint {
			blob, err := w.call(jt, &r, "snapshot", http.MethodGet, "/v1/sessions/"+session+"/snapshot", nil, "")
			if err != nil {
				return err
			}
			if len(blob) == 0 {
				return errors.New("snapshot answered with an empty body")
			}
			restored, err := w.newSession(jt, &r, "restore", "/v1/programs/"+prog+"/sessions/restore"+metricsQuery, blob, "application/octet-stream")
			if err != nil {
				return err
			}
			sessions = append(sessions, restored)
			// The restored session must observe what the original did,
			// then run on exactly as an uninterrupted one would.
			if err := w.observe(jt, &r, "observe"+sfx, false, restored); err != nil {
				return err
			}
			if err := w.runSession(jt, &r, "run"+sfx, restored); err != nil {
				return err
			}
			if err := w.observe(jt, &r, "observe"+sfx, false, restored); err != nil {
				return err
			}
		}
		for _, s := range sessions {
			if _, err := w.call(jt, &r, "close"+sfx, http.MethodDelete, "/v1/sessions/"+s, nil, ""); err != nil {
				return err
			}
		}
		return nil
	}()
	return r
}

// reference computes in this process, under the sequential engine, the
// digests each generated trip must observe over the wire.
func (w *lsdRoundtrip) reference([]jobResult) (ref refResult, _ error) {
	ref.pkgOf = map[string]string{}
	type key struct {
		spec string
		seed int64
	}
	memo := map[key][]uint64{}
	for _, t := range w.plan {
		k := key{t.Spec, t.SessionSeed}
		if _, ok := memo[k]; !ok {
			in := &inproc{e: w.e, ms: []model{lssModel(w.specs, t.Spec, nil, lsdRunCycles)}}
			var ds []uint64
			var err error
			r := in.exec(nil, t.SessionSeed, execOpts{
				extra: []core.BuildOption{core.WithScheduler(core.SchedulerSequential)},
				inspect: func(sim *core.Sim) {
					libraries(sim, ref.pkgOf)
					var d uint64
					d, err = digestOf(sim)
					ds = append(ds, d)
					if err == nil && t.Checkpoint {
						// The restored session observes this same state, then
						// the state one more run later.
						ds = append(ds, d)
						if err = sim.Run(lsdRunCycles); err == nil {
							d, err = digestOf(sim)
							ds = append(ds, d)
						}
					}
				},
			})
			if err = errors.Join(r.err, err); err != nil {
				return ref, err
			}
			memo[k] = ds
		}
		ref.digests = append(ref.digests, memo[k])
	}
	// The mesh spec's in-process cost under the default engine, for
	// simd.run_overhead_ms_p50.
	in := &inproc{e: w.e, ms: []model{lssModel(w.specs, "mesh", nil, 10*lsdRunCycles)}}
	r := in.exec(nil, w.plan[0].SessionSeed, execOpts{})
	if r.err != nil {
		return ref, r.err
	}
	ref.inprocUsPerCycle = ratio(float64(r.stepNs)/1e3, float64(r.cycles))
	return ref, nil
}
