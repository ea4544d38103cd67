package simd

// The service's end-to-end suite: every test drives a real Server over
// real HTTP (httptest), the same wire a remote client uses. The
// bit-identity oracle is simtest.CycleHasher: a restored session must
// hash cycle-for-cycle identically to an uninterrupted run.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	core "liberty/internal/core"
	"liberty/internal/lss"
	"liberty/internal/simtest"
)

// testSpec exercises every stateful pcl template on the snapshot path:
// two rate-gated sources competing through an arbiter into a queue →
// delay → sink pipeline, with sub-unit rates keeping the RNG streams
// hot so checkpoints must replay stream positions exactly.
const testSpec = `# simd end-to-end fabric
let r0 = 0.7;
let r1 = 0.45;
instance src0 : pcl.source(rate = r0);
instance src1 : pcl.source(rate = r1);
instance arb  : pcl.arbiter();
instance q    : pcl.queue(capacity = 3);
instance dly  : pcl.delay(latency = 2);
instance snk  : pcl.sink();

src0.out -> arb.in;
src1.out -> arb.in;
arb.out  -> q.in;
q.out    -> dly.in;
dly.out  -> snk.in;
`

// newTestServer starts a Server over real HTTP and returns it with a
// client pointed at it.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, &Client{Base: hs.URL, HTTP: hs.Client()}
}

func submitTestSpec(t *testing.T, c *Client) ProgramInfo {
	t.Helper()
	info, err := c.SubmitProgram(context.Background(), SubmitProgramRequest{
		Spec: testSpec, Name: "simd_test.lss",
	})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestSubmitAndCacheHit(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	first := submitTestSpec(t, client)
	if first.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	if first.Instances != 6 || first.Conns != 5 {
		t.Fatalf("program shape wrong: %+v", first)
	}
	second := submitTestSpec(t, client)
	if !second.CacheHit {
		t.Fatal("identical resubmission missed the cache")
	}
	if second.ID != first.ID || second.Fingerprint != first.Fingerprint {
		t.Fatalf("cache hit changed identity: %+v vs %+v", second, first)
	}
	// The acceptance pin: a hit returns the same compiled *core.Program,
	// not an equivalent recompile.
	entry, ok := srv.progs.get(first.ID)
	if !ok {
		t.Fatal("submitted program not in registry")
	}
	prog := entry.prog
	entry2, _ := srv.progs.get(second.ID)
	if entry2.prog != prog {
		t.Fatal("cache hit returned a different *core.Program pointer")
	}

	// A different define is a different program.
	other, err := client.SubmitProgram(context.Background(), SubmitProgramRequest{
		Spec: testSpec, Defines: map[string]any{"r0": 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit || other.ID == first.ID {
		t.Fatalf("distinct defines deduped onto the same program: %+v", other)
	}
}

func TestDefinesNormalization(t *testing.T) {
	defs := map[string]any{
		"n": json.Number("8"), "rate": json.Number("0.5"),
		"flag": true, "pat": "uniform", "w": 4, "gf": 2.0,
	}
	if err := normalizeDefines(defs); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"n": int64(8), "rate": 0.5, "flag": true, "pat": "uniform",
		"w": int64(4), "gf": int64(2),
	}
	if !reflect.DeepEqual(defs, want) {
		t.Fatalf("normalized to %#v, want %#v", defs, want)
	}
	if err := normalizeDefines(map[string]any{"bad": []any{1}}); err == nil {
		t.Fatal("array define accepted")
	}

	// End to end: an integer define must land as an integer binding —
	// instance array bounds reject floats.
	_, client := newTestServer(t, Config{})
	info, err := client.SubmitProgram(context.Background(), SubmitProgramRequest{
		Spec: `let n = 2;
instance src[n] : pcl.source(rate = 0.5);
instance snk[n] : pcl.sink();
for i in 0 .. n-1 { src[i].out -> snk[i].in; }
`,
		Defines: map[string]any{"n": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Instances != 8 {
		t.Fatalf("define n=4 elaborated %d instances, want 8", info.Instances)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	prog := submitTestSpec(t, client)

	a, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatalf("sessions share id %s", a.ID)
	}

	// Step defaults to one cycle; run takes many.
	st, err := client.Step(ctx, a.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 1 || st.Ran != 1 {
		t.Fatalf("default step landed at %+v", st)
	}
	if st, err = client.Run(ctx, a.ID, 99); err != nil || st.Cycle != 100 {
		t.Fatalf("run landed at %+v (err %v)", st, err)
	}

	// Sessions are independent: b has not moved.
	bi, err := client.SessionInfo(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Cycle != 0 || bi.Seed != 2 {
		t.Fatalf("sibling session disturbed: %+v", bi)
	}

	snap, err := client.Observe(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cycles != 100 || snap.Counters["snk.received"] == 0 {
		t.Fatalf("observation wrong: cycles=%d received=%d", snap.Cycles, snap.Counters["snk.received"])
	}

	if err := client.CloseSession(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SessionInfo(ctx, a.ID); !isCode(err, CodeNotFound) {
		t.Fatalf("deleted session still answers: %v", err)
	}
	pi, err := client.SubmitProgram(ctx, SubmitProgramRequest{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	if pi.Sessions != 1 {
		t.Fatalf("program counts %d sessions, want 1 (b)", pi.Sessions)
	}
}

// TestConcurrentSessions is the acceptance load shape: 2×GOMAXPROCS
// sessions stamped from one cached program, all stepping concurrently
// over HTTP. Run under -race this doubles as the data-race gate.
func TestConcurrentSessions(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	prog := submitTestSpec(t, client)
	n := 2 * runtime.GOMAXPROCS(0)

	sessions := make([]SessionInfo, n)
	for i := range sessions {
		var err error
		sessions[i], err = client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, ss := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < 5; c++ {
				if _, err := client.Run(ctx, ss.ID, 20); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %s: %v", sessions[i].ID, err)
		}
	}
	for _, ss := range sessions {
		info, err := client.SessionInfo(ctx, ss.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Cycle != 100 {
			t.Fatalf("session %s at cycle %d, want 100", ss.ID, info.Cycle)
		}
	}
}

// TestSchedulerSpellingsShareOneProgram: the program cache is keyed on
// the kind the options name, not on how they spell it. An omitted
// scheduler and "sparse" are one compiled program, reported as the
// engine; "sequential" reaches the compiler as the reference — a
// second program whose sessions stamp and step; an unknown name is
// LSD001, before any compile.
func TestSchedulerSpellingsShareOneProgram(t *testing.T) {
	ctx := context.Background()
	srv, client := newTestServer(t, Config{})
	var first ProgramInfo
	for i, o := range []BuildOptions{
		{},
		{Scheduler: "sparse"},
	} {
		info, err := client.SubmitProgram(ctx, SubmitProgramRequest{Spec: testSpec, Options: o})
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if info.Scheduler != "sparse" {
			t.Fatalf("%+v: program reports scheduler %q, want the compiled engine (sparse)", o, info.Scheduler)
		}
		if i == 0 {
			first = info
			continue
		}
		if info.ID != first.ID || !info.CacheHit {
			t.Fatalf("%+v: id %s hit=%v, want a cache hit on %s", o, info.ID, info.CacheHit, first.ID)
		}
	}
	_, err := client.SubmitProgram(ctx, SubmitProgramRequest{
		Spec: "instance x : no.such.template();", Options: BuildOptions{Scheduler: "quantum"},
	})
	if !isCode(err, CodeBadRequest) {
		t.Fatalf("unknown scheduler on an uncompilable spec: %v, want %s before any compile", err, CodeBadRequest)
	}
	if n := len(srv.progs.entries); n != 1 {
		t.Fatalf("registry holds %d programs, want 1", n)
	}

	ref, err := client.SubmitProgram(ctx, SubmitProgramRequest{
		Spec: testSpec, Options: BuildOptions{Scheduler: "sequential"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Scheduler != "sequential" || ref.ID == first.ID || ref.CacheHit {
		t.Fatalf("reference program = %+v, want a second program reporting sequential", ref)
	}
	ss, err := client.NewSession(ctx, ref.ID, CreateSessionRequest{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := client.Run(ctx, ss.ID, 50); err != nil || st.Cycle != 50 {
		t.Fatalf("reference session run landed at %+v (err %v)", st, err)
	}
	snap, err := client.Observe(ctx, ss.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["snk.received"] == 0 {
		t.Fatal("reference session moved no data through the pipeline")
	}
}

// TestSnapshotRestoreBitIdentical is the service's checkpoint oracle:
// a session snapshotted over HTTP at cycle 60 and restored — locally and
// into a fresh server session — must continue bit-identically (per-cycle
// hashes, statistics) with an uninterrupted 140-cycle run.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	const snapAt, total = 60, 140
	ctx := context.Background()
	_, client := newTestServer(t, Config{})
	prog := submitTestSpec(t, client)

	// Reference: the same spec compiled locally (same structural
	// fingerprint) run uninterrupted with the hasher attached.
	local, err := lss.CompileFile("simd_test.lss", testSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp := fmt.Sprintf("%016x", local.Fingerprint()); fp != prog.Fingerprint {
		t.Fatalf("local fingerprint %s != served %s", fp, prog.Fingerprint)
	}
	ref := &simtest.CycleHasher{}
	refSim, err := local.NewSim(core.WithSeed(1), core.WithTracer(ref))
	if err != nil {
		t.Fatal(err)
	}
	defer refSim.Close()
	if err := refSim.Run(total); err != nil {
		t.Fatal(err)
	}

	// Interrupted: run to snapAt on the server, snapshot over HTTP.
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, sess.ID, snapAt); err != nil {
		t.Fatal(err)
	}
	ckpt, err := client.Snapshot(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Restore the HTTP snapshot into the local program with a hasher: the
	// remainder must hash identically to the reference's tail.
	h := &simtest.CycleHasher{}
	restored, err := local.Restore(bytes.NewReader(ckpt), core.WithTracer(h))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Now() != snapAt {
		t.Fatalf("restored at cycle %d, want %d", restored.Now(), snapAt)
	}
	if err := restored.Run(total - snapAt); err != nil {
		t.Fatal(err)
	}
	if len(h.Hashes) != total-snapAt {
		t.Fatalf("restored run hashed %d cycles, want %d", len(h.Hashes), total-snapAt)
	}
	for i, want := range ref.Hashes[snapAt:] {
		if h.Hashes[i] != want {
			t.Fatalf("cycle %d diverged after HTTP snapshot/restore", snapAt+i)
		}
	}

	// Restore into a fresh server session too: its statistics at cycle
	// total must equal the uninterrupted session's.
	rs, err := client.RestoreSession(ctx, prog.ID, bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycle != snapAt || rs.Seed != 1 {
		t.Fatalf("server restore landed at %+v", rs)
	}
	if _, err := client.Run(ctx, rs.ID, total-snapAt); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, sess.ID, total-snapAt); err != nil {
		t.Fatal(err)
	}
	restoredObs, err := client.Observe(ctx, rs.ID)
	if err != nil {
		t.Fatal(err)
	}
	directObs, err := client.Observe(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restoredObs.Counters, directObs.Counters) {
		t.Fatalf("restored session counters diverged:\n%v\nvs\n%v", restoredObs.Counters, directObs.Counters)
	}
}

// fakeClock is a mutex-guarded test clock for the park/TTL policies.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestParkAndUnparkOnDemand(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	srv, client := newTestServer(t, Config{
		ParkAfter: time.Minute, CheckpointDir: dir, now: clock.now,
	})
	ctx := context.Background()
	prog := submitTestSpec(t, client)
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, sess.ID, 40); err != nil {
		t.Fatal(err)
	}
	before, err := client.Observe(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}

	clock.advance(2 * time.Minute)
	srv.sweepIdle(clock.now())

	info, err := client.SessionInfo(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "parked" || info.Cycle != 40 {
		t.Fatalf("after sweep: %+v, want parked at 40", info)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(ckpts) != 1 {
		t.Fatalf("found %d checkpoints, want 1", len(ckpts))
	}

	// A parked session's snapshot endpoint serves the checkpoint bytes
	// without waking it.
	if _, err := client.Snapshot(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	if info, _ = client.SessionInfo(ctx, sess.ID); info.State != "parked" {
		t.Fatal("snapshot woke the parked session")
	}

	// Observation restores on demand; state and statistics survive.
	after, err := client.Observe(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Counters, before.Counters) {
		t.Fatalf("park round-trip changed counters:\n%v\nvs\n%v", after.Counters, before.Counters)
	}
	if info, _ = client.SessionInfo(ctx, sess.ID); info.State != "live" {
		t.Fatal("observe did not restore the parked session")
	}
	if ckpts, _ = filepath.Glob(filepath.Join(dir, "*.ckpt")); len(ckpts) != 0 {
		t.Fatalf("unpark left %d checkpoints behind", len(ckpts))
	}
	// The restored session still steps.
	if st, err := client.Run(ctx, sess.ID, 10); err != nil || st.Cycle != 50 {
		t.Fatalf("post-unpark run landed at %+v (err %v)", st, err)
	}
}

// unsnapshottableSpec is a model Sim.Snapshot refuses: ccl.link has
// handlers but declares no state with Base.Checkpoint.
const unsnapshottableSpec = `instance src : ccl.pktsource(node = 0, nodes = 2, rate = 0.5, size = 1);
instance lnk : ccl.link(latency = 2);
instance snk : pcl.sink();
src.out -> lnk.in;
lnk.out -> snk.in;
`

// TestSnapshotRefusedIsAnError: a model that cannot be checkpointed
// answers the error envelope naming the instance — not a committed 200
// with an empty body that fails a later restore far from the cause — and
// an idle sweep that cannot park it leaves the session live and runnable.
func TestSnapshotRefusedIsAnError(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	srv, client := newTestServer(t, Config{
		ParkAfter: time.Minute, CheckpointDir: dir, now: clock.now,
	})
	ctx := context.Background()
	prog, err := client.SubmitProgram(ctx, SubmitProgramRequest{Spec: unsnapshottableSpec, Name: "nostate.lss"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, sess.ID, 20); err != nil {
		t.Fatal(err)
	}
	body, err := client.Snapshot(ctx, sess.ID)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != CodeModelError || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("snapshot of a model without declared state: %d bytes, err %v; want %s/422", len(body), err, CodeModelError)
	}
	if !strings.Contains(apiErr.Message, "lnk") || !strings.Contains(apiErr.Message, "Checkpoint") {
		t.Fatalf("error does not name the instance and the cause: %q", apiErr.Message)
	}

	clock.advance(2 * time.Minute)
	srv.sweepIdle(clock.now())
	if info, err := client.SessionInfo(ctx, sess.ID); err != nil || info.State != "live" {
		t.Fatalf("after a park that cannot snapshot: %+v (err %v), want live", info, err)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "*")); len(ckpts) != 0 {
		t.Fatalf("failed park left %v behind", ckpts)
	}
	if st, err := client.Run(ctx, sess.ID, 10); err != nil || st.Cycle != 30 {
		t.Fatalf("run after the failed park landed at %+v (err %v)", st, err)
	}
}

// snapshotLanes mirrors the leading fields of core's gob checkpoint
// layout (gob matches fields by name and skips the rest), enough to
// re-encode a snapshot with one status lane cut short.
type snapshotLanes struct {
	Magic       string
	Version     int
	Fingerprint uint64
	Cycle       uint64
	Seed        int64
	SpillHits   uint64
	Status      [3][]uint32
	Rng         []uint64
	Inst        [][]byte
}

// TestRestoreShortAckLaneRefused: a gob-crafted snapshot that carries the
// program's fingerprint but one cell too few in its ack lane is refused by
// Program.Restore and answered LSD005/422 by POST …/restore — and the
// daemon goes on serving the live session beside it.
func TestRestoreShortAckLaneRefused(t *testing.T) {
	refuseCrafted(t, "a short ack lane", func(snap *snapshotLanes) {
		snap.Status[core.SigAck] = snap.Status[core.SigAck][1:]
	})
}

// TestRestoreShortRngRefused: a crafted snapshot whose random stream
// states are one entry short of the netlist's instances is refused,
// LSD005/422.
func TestRestoreShortRngRefused(t *testing.T) {
	refuseCrafted(t, "a short Rng", func(snap *snapshotLanes) { snap.Rng = snap.Rng[1:] })
}

// TestRestoreVersion1Refused: a snapshot whose header says an earlier
// version — 1, before instance state was declared with Base.Checkpoint,
// or 2, when Rng held draw counts — is refused, LSD005/422, with a
// message that names the version.
func TestRestoreVersion1Refused(t *testing.T) {
	for _, v := range []int{1, 2} {
		err := refuseCrafted(t, fmt.Sprintf("a version-%d header", v), func(snap *snapshotLanes) { snap.Version = v })
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("refusal does not name the version: %v", err)
		}
	}
}

// TestRestoreCraftedDrawCount: a snapshot carrying a draw count of 2^40
// in the field earlier versions replayed stream positions from is
// answered — restored or refused — within 2 s by Program.Restore and by
// POST …/restore, and the live session beside it keeps serving.
func TestRestoreCraftedDrawCount(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{})
	prog := submitTestSpec(t, client)
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, sess.ID, 20); err != nil {
		t.Fatal(err)
	}
	ckpt, err := client.Snapshot(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Magic       string
		Version     int
		Fingerprint uint64
		Cycle       uint64
		Seed        int64
		SpillHits   uint64
		Status      [3][]uint32
		Rng         []uint64
		RngN        []uint64
		Inst        [][]byte
	}
	if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.RngN) == 0 {
		snap.RngN = make([]uint64, len(snap.Inst))
	}
	snap.RngN[0] = 1 << 40
	var crafted bytes.Buffer
	if err := gob.NewEncoder(&crafted).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	local, err := lss.CompileFile("simd_test.lss", testSpec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// within runs call on its own goroutine and fails the test if it has
	// not returned after 2 s.
	within := func(what string, call func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			call()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s of a snapshot with a crafted draw count did not answer within 2 s", what)
		}
	}
	within("Program.Restore", func() {
		if restored, err := local.Restore(bytes.NewReader(crafted.Bytes())); err == nil {
			restored.Close()
		}
	})
	var postErr error
	within("POST restore", func() {
		_, postErr = client.RestoreSession(ctx, prog.ID, bytes.NewReader(crafted.Bytes()))
	})
	if postErr != nil && !isCode(postErr, CodeSnapshotInvalid) {
		t.Fatalf("POST restore of a crafted draw count: err %v, want success or %s", postErr, CodeSnapshotInvalid)
	}
	if st, err := client.Run(ctx, sess.ID, 10); err != nil || st.Cycle != 30 {
		t.Fatalf("live session after the crafted restore landed at %+v (err %v)", st, err)
	}
}

// refuseCrafted snapshots a live session of testSpec at cycle 20,
// re-encodes it with craft applied, and requires Program.Restore and POST
// …/restore (LSD005/422) to refuse it while the live session keeps
// serving. It returns the POST's error.
func refuseCrafted(t *testing.T, what string, craft func(*snapshotLanes)) error {
	t.Helper()
	ctx := context.Background()
	_, client := newTestServer(t, Config{})
	prog := submitTestSpec(t, client)
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, sess.ID, 20); err != nil {
		t.Fatal(err)
	}
	ckpt, err := client.Snapshot(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotLanes
	if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	craft(&snap)
	var crafted bytes.Buffer
	if err := gob.NewEncoder(&crafted).Encode(&snap); err != nil {
		t.Fatal(err)
	}

	local, err := lss.CompileFile("simd_test.lss", testSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp := fmt.Sprintf("%016x", snap.Fingerprint); fp != prog.Fingerprint {
		t.Fatalf("crafted snapshot fingerprint %s != program %s", fp, prog.Fingerprint)
	}
	if _, err := local.Restore(bytes.NewReader(crafted.Bytes())); err == nil {
		t.Fatalf("Program.Restore accepted a snapshot with %s", what)
	}
	_, err = client.RestoreSession(ctx, prog.ID, bytes.NewReader(crafted.Bytes()))
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != CodeSnapshotInvalid || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("POST restore of %s: err %v, want %s/422", what, err, CodeSnapshotInvalid)
	}
	if st, err := client.Run(ctx, sess.ID, 10); err != nil || st.Cycle != 30 {
		t.Fatalf("live session after the refused restore landed at %+v (err %v)", st, err)
	}
	return err
}

// TestCorruptParkFileIsAnLSDError: a parked session whose checkpoint file
// was overwritten answers every waking request with LSD007 — the
// documented code for an unreadable checkpoint — not a 500 or a dropped
// connection; the session stays parked with its file kept, and DELETE
// removes both.
func TestCorruptParkFileIsAnLSDError(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	srv, client := newTestServer(t, Config{
		ParkAfter: time.Minute, CheckpointDir: dir, now: clock.now,
	})
	ctx := context.Background()
	prog := submitTestSpec(t, client)
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, sess.ID, 20); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	srv.sweepIdle(clock.now())
	ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(ckpts) != 1 {
		t.Fatalf("found %d checkpoints, want 1", len(ckpts))
	}
	garbage := []byte("not a checkpoint")
	if err := os.WriteFile(ckpts[0], garbage, 0o666); err != nil {
		t.Fatal(err)
	}

	_, stepErr := client.Step(ctx, sess.ID, 1)
	_, observeErr := client.Observe(ctx, sess.ID)
	for verb, err := range map[string]error{"step": stepErr, "observe": observeErr} {
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.Code != CodeUnavailable || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("%s of a session with a corrupt park file: err %v, want %s/503", verb, err, CodeUnavailable)
		}
	}
	if info, err := client.SessionInfo(ctx, sess.ID); err != nil || info.State != "parked" || info.Cycle != 20 {
		t.Fatalf("after the failed restores: %+v (err %v), want parked at 20", info, err)
	}
	if kept, err := os.ReadFile(ckpts[0]); err != nil || !bytes.Equal(kept, garbage) {
		t.Fatalf("failed restore did not keep the checkpoint file: %q (err %v)", kept, err)
	}
	if err := client.CloseSession(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpts[0]); !os.IsNotExist(err) {
		t.Fatalf("DELETE left the checkpoint file behind (stat err %v)", err)
	}
	if _, err := client.SessionInfo(ctx, sess.ID); !isCode(err, CodeNotFound) {
		t.Fatalf("deleted session still answers: %v", err)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	srv, client := newTestServer(t, Config{
		SessionTTL: time.Hour, now: clock.now,
	})
	ctx := context.Background()
	prog := submitTestSpec(t, client)
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(30 * time.Minute)
	srv.sweepIdle(clock.now())
	if _, err := client.SessionInfo(ctx, sess.ID); err != nil {
		t.Fatalf("session evicted before its TTL: %v", err)
	}
	clock.advance(31 * time.Minute)
	srv.sweepIdle(clock.now())
	if _, err := client.SessionInfo(ctx, sess.ID); !isCode(err, CodeNotFound) {
		t.Fatalf("expired session still answers: %v", err)
	}
}

// isCode reports whether err is an *APIError carrying code.
func isCode(err error, code ErrorCode) bool {
	apiErr, ok := err.(*APIError)
	return ok && apiErr.Code == code
}

// TestErrorEnvelope pins the unified error surface: every failure —
// including mux-level unknown paths and methods — answers the same
// {"error": {code, message}} envelope with the documented status.
func TestErrorEnvelope(t *testing.T) {
	srv, client := newTestServer(t, Config{MaxSessions: 1})
	ctx := context.Background()
	prog := submitTestSpec(t, client)
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := client.httpClient().Post(client.Base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := client.httpClient().Get(client.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check := func(name string, resp *http.Response, status int, code ErrorCode) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d", name, resp.StatusCode, status)
		}
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
			t.Fatalf("%s: response is not the error envelope: %v", name, err)
		}
		if env.Error.Code != code {
			t.Fatalf("%s: code %s, want %s", name, env.Error.Code, code)
		}
	}

	check("bad JSON", post("/v1/programs", "{nope"), 400, CodeBadRequest)
	check("no spec", post("/v1/programs", "{}"), 400, CodeBadRequest)
	check("unknown field", post("/v1/programs", `{"spce": "x"}`), 400, CodeBadRequest)
	check("bad scheduler", post("/v1/programs",
		`{"spec": "instance s : pcl.sink();", "options": {"scheduler": "quantum"}}`), 400, CodeBadRequest)
	check("bad define", post("/v1/programs",
		`{"spec": "instance s : pcl.sink();", "defines": {"x": [1]}}`), 400, CodeBadRequest)
	check("uncompilable spec", post("/v1/programs", `{"spec": "instance x : no.such.template();"}`),
		422, CodeSpecInvalid)
	check("unknown program", get("/v1/programs/p0000000000000000"), 404, CodeNotFound)
	check("unknown session", get("/v1/sessions/s999"), 404, CodeNotFound)
	check("unknown path", get("/nope"), 404, CodeNotFound)
	check("wrong method", post("/v1/sessions/"+sess.ID, "{}"), 404, CodeNotFound)
	check("run without cycles", post("/v1/sessions/"+sess.ID+"/run", "{}"), 400, CodeBadRequest)
	check("garbage snapshot", post("/v1/programs/"+prog.ID+"/sessions/restore", "not a snapshot"),
		422, CodeSnapshotInvalid)
	check("session capacity", post("/v1/programs/"+prog.ID+"/sessions", "{}"), 503, CodeUnavailable)

	// Conflict: hold the session's mutation lock as an in-flight step
	// would, then try to step it over HTTP.
	ss, ok := srv.session(sess.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	ss.mu.Lock()
	check("busy session", post("/v1/sessions/"+sess.ID+"/step", "{}"), 409, CodeConflict)
	ss.mu.Unlock()
}

// TestLocalMetricsCompat pins the process-level pages: top-level
// /metrics serves the JSON statistics document of the simulator attached
// with SetLocal, and 503 in the error envelope before one is attached;
// /debug/vars is the runtime's expvar page, with memstats and no copy of
// the statistics.
func TestLocalMetricsCompat(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	resp, err := client.httpClient().Get(client.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || env.Error == nil || env.Error.Code != CodeUnavailable {
		t.Fatalf("unattached /metrics answered %d %+v, want 503 LSD007", resp.StatusCode, env.Error)
	}

	sim, err := lss.Load(testSpec, nil, core.WithSeed(1), core.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(25); err != nil {
		t.Fatal(err)
	}
	srv.SetLocal(sim)

	resp, err = client.httpClient().Get(client.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics answered %d", resp.StatusCode)
	}
	var snap struct {
		Cycles   uint64           `json:"cycles"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cycles != 25 || len(snap.Counters) == 0 {
		t.Fatalf("/metrics snapshot wrong: %+v", snap)
	}

	resp, err = client.httpClient().Get(client.Base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars is missing memstats")
	}
	if _, ok := vars["liberty"]; ok {
		t.Fatal("/debug/vars carries a liberty var: the statistics are served at /metrics")
	}
}

// TestSessionDebugVars pins the removal of the two per-session aliases,
// /v1/sessions/{id}/metrics (observe a second time) and
// /v1/sessions/{id}/debug/vars (the process-wide expvar page): for an
// unknown id and for a live and a parked session, both answer 404 with
// the LSD002 envelope, and asking does not wake a parked session.
func TestSessionDebugVars(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	srv, client := newTestServer(t, Config{
		ParkAfter: time.Minute, CheckpointDir: t.TempDir(), now: clock.now,
	})
	ctx := context.Background()
	gone := func(id string) {
		t.Helper()
		for _, route := range []string{"/metrics", "/debug/vars"} {
			resp, err := client.httpClient().Get(client.Base + "/v1/sessions/" + id + route)
			if err != nil {
				t.Fatal(err)
			}
			var env errorEnvelope
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != 404 || err != nil || env.Error == nil || env.Error.Code != CodeNotFound {
				t.Fatalf("%s%s answered %d %+v (%v), want 404 LSD002", id, route, resp.StatusCode, env.Error, err)
			}
		}
	}
	gone("s-none")

	prog := submitTestSpec(t, client)
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gone(sess.ID)
	clock.advance(2 * time.Minute)
	srv.sweepIdle(clock.now())
	if info, _ := client.SessionInfo(ctx, sess.ID); info.State != "parked" {
		t.Fatalf("idle session not parked: %+v", info)
	}
	gone(sess.ID)
	if info, _ := client.SessionInfo(ctx, sess.ID); info.State != "parked" {
		t.Fatalf("asking for a removed route woke the parked session: %+v", info)
	}
	if _, err := client.Observe(ctx, sess.ID); err != nil {
		t.Fatalf("observing the parked session: %v", err)
	}
	if info, _ := client.SessionInfo(ctx, sess.ID); info.State != "live" {
		t.Fatalf("observe did not unpark the session: %+v", info)
	}
}

// TestGracefulShutdown pins the no-shutdown-path fix: cancelling the
// context hands ListenAndServe a clean nil return after draining.
func TestGracefulShutdown(t *testing.T) {
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond) // let the listener come up
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return after cancellation")
	}
}

// TestServerCloseReleasesCheckpoints pins shutdown hygiene: closing the
// server removes parked sessions' checkpoint files.
func TestServerCloseReleasesCheckpoints(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	srv, client := newTestServer(t, Config{
		ParkAfter: time.Minute, CheckpointDir: dir, now: clock.now,
	})
	ctx := context.Background()
	prog := submitTestSpec(t, client)
	if _, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{}); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	srv.sweepIdle(clock.now())
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(ckpts) != 1 {
		t.Fatalf("found %d checkpoints before close, want 1", len(ckpts))
	}
	srv.Close()
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(ckpts) != 0 {
		t.Fatalf("close left %d checkpoints behind", len(ckpts))
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("close removed the caller-owned checkpoint dir: %v", err)
	}
}

// TestProgramLRUEviction pins the cache policy: beyond capacity the
// least-recently-used program leaves the cache, while sessions already
// stamped from it keep running on their program pointer — a session
// parked before the eviction too: it unparks through that pointer and
// steps on bit-identically to a twin that never parked.
func TestProgramLRUEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	srv, client := newTestServer(t, Config{
		ProgramCache: 2, ParkAfter: time.Minute, CheckpointDir: t.TempDir(), now: clock.now,
	})
	ctx := context.Background()

	submit := func(seed int) ProgramInfo {
		t.Helper()
		info, err := client.SubmitProgram(ctx, SubmitProgramRequest{
			Spec: testSpec, Defines: map[string]any{"r0": 0.1 * float64(seed+1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	p0 := submit(0)
	sess, err := client.NewSession(ctx, p0.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, sess.ID, 20); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	srv.sweepIdle(clock.now())
	if info, err := client.SessionInfo(ctx, sess.ID); err != nil || info.State != "parked" {
		t.Fatalf("before the eviction: %+v (err %v), want parked", info, err)
	}
	submit(1)
	submit(2) // evicts p0, the least recently used

	resp, err := client.httpClient().Get(client.Base + "/v1/programs/" + p0.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("evicted program still cached (status %d)", resp.StatusCode)
	}
	// The parked session holds the program pointer, unparks through it
	// and runs on.
	if st, err := client.Run(ctx, sess.ID, 10); err != nil || st.Cycle != 30 {
		t.Fatalf("session on evicted program: %+v (err %v)", st, err)
	}

	local, err := lss.CompileFile("simd_test.lss", testSpec, map[string]any{"r0": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if fp := fmt.Sprintf("%016x", local.Fingerprint()); fp != p0.Fingerprint {
		t.Fatalf("twin fingerprint %s != evicted program %s", fp, p0.Fingerprint)
	}
	twin, err := local.NewSim(core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	simtest.Run(t, twin, 30)
	ss, _ := srv.session(sess.ID)
	ss.mu.Lock()
	got := simtest.StepHashes(t, ss.live(), 50)
	ss.mu.Unlock()
	if !slices.Equal(got, simtest.StepHashes(t, twin, 50)) {
		t.Fatal("the unparked session diverged from a twin that never parked")
	}
}

// bomb is a source whose handler hits a plain Go bug — a failed type
// assertion, not a ContractError — on its sixth cycle.
type bomb struct {
	core.Base
	out *core.Port
}

func init() {
	core.Register(&core.Template{
		Name: "simdtest.bomb",
		Doc:  "test-only source that panics with a runtime error at cycle 5",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			m := &bomb{}
			m.Init(name, m)
			m.out = m.AddOutPort("out")
			m.OnCycleStart(func() {
				var v any = m.Now()
				if m.Now() == 5 {
					_ = v.(string)
				}
				m.out.Idle()
			})
			return m, nil
		},
	})
}

// TestHandlerPanicClosesSession: a handler panic that is not a contract
// error must not unwind through net/http (which swallows it and drops the
// connection, leaving a poisoned session "live"). The run answers the
// LSD006 envelope naming the panic, the session is gone, and the daemon
// keeps serving.
func TestHandlerPanicClosesSession(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	prog, err := client.SubmitProgram(ctx, SubmitProgramRequest{
		Spec: "instance b : simdtest.bomb();\ninstance s : pcl.sink();\nb.out -> s.in;\n",
		Name: "bomb.lss",
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Run(ctx, sess.ID, 20)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != CodeModelError {
		t.Fatalf("run into a panicking handler: err %v, want the %s envelope", err, CodeModelError)
	}
	if !strings.Contains(apiErr.Message, "handler panic") || !strings.Contains(apiErr.Message, "interface conversion") {
		t.Fatalf("error does not name the panic: %q", apiErr.Message)
	}
	if _, err := client.SessionInfo(ctx, sess.ID); !isCode(err, CodeNotFound) {
		t.Fatalf("session after the panic: err %v, want %s", err, CodeNotFound)
	}
	// The daemon serves the next request, on the same program.
	next, err := client.NewSession(ctx, prog.ID, CreateSessionRequest{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := client.Run(ctx, next.ID, 5); err != nil || st.Cycle != 5 {
		t.Fatalf("fresh session after the panic landed at %+v (err %v)", st, err)
	}
}
