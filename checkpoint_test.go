package liberty_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/pcl"
)

// checkpointAssemble is the deterministic recipe the checkpoint and
// concurrency tests compile: two rate-gated sources competing through an
// arbiter into a queue → delay → sink pipeline, plus an independent
// chain. Every pcl template with behavioral state (source sequence/
// pending, arbiter grant rotor, queue entries, delay lanes) is on the
// path, and the sub-unit rates keep the RNG streams hot so checkpointing
// must replay stream positions exactly.
func checkpointAssemble(b *core.Builder) error {
	add := func(inst core.Instance, err error) (core.Instance, error) {
		if err != nil {
			return nil, err
		}
		b.Add(inst)
		return inst, nil
	}
	src0, err := add(pcl.NewSource("src0", core.Params{"rate": 0.7}))
	if err != nil {
		return err
	}
	src1, err := add(pcl.NewSource("src1", core.Params{"rate": 0.45}))
	if err != nil {
		return err
	}
	arb, err := add(pcl.NewArbiter("arb", nil))
	if err != nil {
		return err
	}
	q, err := add(pcl.NewQueue("q", core.Params{"capacity": int64(3)}))
	if err != nil {
		return err
	}
	dly, err := add(pcl.NewDelay("dly", core.Params{"latency": int64(2)}))
	if err != nil {
		return err
	}
	snk, err := add(pcl.NewSink("snk", nil))
	if err != nil {
		return err
	}
	for _, c := range [][4]any{
		{src0, "out", arb, "in"},
		{src1, "out", arb, "in"},
		{arb, "out", q, "in"},
		{q, "out", dly, "in"},
		{dly, "out", snk, "in"},
	} {
		if err := b.Connect(c[0].(core.Instance), c[1].(string), c[2].(core.Instance), c[3].(string)); err != nil {
			return err
		}
	}
	// Independent chain.
	tsrc, err := add(pcl.NewSource("tsrc", core.Params{"rate": 0.6}))
	if err != nil {
		return err
	}
	tq, err := add(pcl.NewQueue("tq", core.Params{"capacity": int64(2)}))
	if err != nil {
		return err
	}
	tsnk, err := add(pcl.NewSink("tsnk", nil))
	if err != nil {
		return err
	}
	if err := b.Connect(tsrc, "out", tq, "in"); err != nil {
		return err
	}
	return b.Connect(tq, "out", tsnk, "in")
}

// runStamped stamps a session from prog with a cycle hasher attached,
// runs it for cycles and returns the hash sequence and statistics dump.
func runStamped(t *testing.T, prog *core.Program, cycles uint64) ([]uint64, string) {
	t.Helper()
	h := &cycleHasher{}
	sim, err := prog.NewSim(core.WithTracer(h))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(cycles); err != nil {
		t.Fatal(err)
	}
	var st bytes.Buffer
	sim.Stats().Dump(&st)
	return h.hashes, st.String()
}

// TestCheckpointRestoreBitIdentical is the checkpoint oracle: run a
// session to cycle k, snapshot, restore onto a fresh session and run the
// remainder. The restored run's per-cycle scheddiff hashes and its final
// statistics dump must be bit-identical to an uninterrupted run — under
// the reference and the engine. Subtests are named any/<engine>: the
// payloads are boxed (any).
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const snapAt, total = 60, 140
	engines := []struct {
		name string
		kind core.SchedulerKind
	}{
		{"sequential", core.SchedulerSequential},
		{"sparse", core.SchedulerSparse},
	}
	for _, eng := range engines {
		t.Run("any/"+eng.name, func(t *testing.T) {
			prog, err := core.Compile(checkpointAssemble,
				core.WithSeed(7), core.WithScheduler(eng.kind))
			if err != nil {
				t.Fatal(err)
			}
			refHashes, refStats := runStamped(t, prog, total)
			if len(refHashes) != total {
				t.Fatalf("reference run hashed %d cycles, want %d", len(refHashes), total)
			}

			h1 := &cycleHasher{}
			simA, err := prog.NewSim(core.WithTracer(h1))
			if err != nil {
				t.Fatal(err)
			}
			if err := simA.Run(snapAt); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := simA.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			simA.Close()
			for i := 0; i < snapAt; i++ {
				if h1.hashes[i] != refHashes[i] {
					t.Fatalf("pre-snapshot run diverges from reference at cycle %d", i)
				}
			}

			h2 := &cycleHasher{}
			simB, err := prog.Restore(bytes.NewReader(buf.Bytes()), core.WithTracer(h2))
			if err != nil {
				t.Fatal(err)
			}
			defer simB.Close()
			if got := simB.Now(); got != snapAt {
				t.Fatalf("restored session resumes at cycle %d, want %d", got, snapAt)
			}
			if err := simB.Run(total - snapAt); err != nil {
				t.Fatal(err)
			}
			if len(h2.hashes) != total-snapAt {
				t.Fatalf("restored run hashed %d cycles, want %d", len(h2.hashes), total-snapAt)
			}
			for i, h := range h2.hashes {
				if h != refHashes[snapAt+i] {
					t.Fatalf("%s: restored run diverges from the uninterrupted one at cycle %d",
						eng.name, snapAt+i)
				}
			}
			var st bytes.Buffer
			simB.Stats().Dump(&st)
			if st.String() != refStats {
				t.Fatalf("restored statistics diverge:\n--- uninterrupted\n%s--- restored\n%s",
					refStats, st.String())
			}
		})
	}
}

// restoreAcross runs a session of from for snapAt cycles, snapshots it,
// restores the snapshot into a session of to and runs that to total. It
// returns the restored run's per-cycle hashes and final statistics dump.
func restoreAcross(t *testing.T, from, to *core.Program, snapAt, total uint64) ([]uint64, string) {
	t.Helper()
	simA, err := from.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	if err := simA.Run(snapAt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := simA.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	simA.Close()
	h := &cycleHasher{}
	simB, err := to.Restore(&buf, core.WithTracer(h))
	if err != nil {
		t.Fatal(err)
	}
	defer simB.Close()
	if err := simB.Run(total - snapAt); err != nil {
		t.Fatal(err)
	}
	var st bytes.Buffer
	simB.Stats().Dump(&st)
	return h.hashes, st.String()
}

// TestEmptyPartitionCrossEngine runs the engine on two recipes — the
// checkpoint recipe, in which a start handler reaches every cluster, and
// one with an idle island that no start handler reaches, decided like
// any other cluster from its empty frontier — against the reference. All must report sparse, hash equal to the reference cycle by
// cycle, and exchange snapshots with it in either direction: the
// fingerprint hashes structure, not the scheduler kind, so the snapshot
// format is independent of what wrote it.
func TestEmptyPartitionCrossEngine(t *testing.T) {
	const snapAt, total = 60, 140
	withIsland := func(b *core.Builder) error {
		if err := checkpointAssemble(b); err != nil {
			return err
		}
		x, y := newPassThrough("island_x"), newPassThrough("island_y")
		b.Add(x)
		b.Add(y)
		if err := b.Connect(x, "out", y, "in"); err != nil {
			return err
		}
		return b.Connect(y, "out", x, "in")
	}
	for _, tc := range []struct {
		name     string
		assemble func(*core.Builder) error
	}{
		{"gates-nothing", checkpointAssemble},
		{"idle-island", withIsland},
	} {
		progs := map[core.SchedulerKind]*core.Program{}
		for _, kind := range []core.SchedulerKind{core.SchedulerSparse, core.SchedulerSequential} {
			p, err := core.Compile(tc.assemble, core.WithSeed(7), core.WithScheduler(kind))
			if err != nil {
				t.Fatal(err)
			}
			progs[kind] = p
		}
		sparse := progs[core.SchedulerSparse]
		if got := sparse.Scheduler(); got != core.SchedulerSparse {
			t.Fatalf("%s: program reports %s, want sparse", tc.name, got)
		}
		if info := sparse.Schedule(); info.ClosableClusters != info.Clusters {
			t.Fatalf("%s: %d of %d clusters closable, want all", tc.name, info.ClosableClusters, info.Clusters)
		}
		refHashes, refStats := runStamped(t, progs[core.SchedulerSequential], total)
		gotHashes, gotStats := runStamped(t, sparse, total)
		for i := range refHashes {
			if gotHashes[i] != refHashes[i] {
				t.Fatalf("%s: sparse diverges from the sequential oracle at cycle %d", tc.name, i)
			}
		}
		if gotStats != refStats {
			t.Fatalf("%s: sparse statistics diverge from the oracle's", tc.name)
		}
		for _, dir := range [][2]core.SchedulerKind{
			{core.SchedulerSparse, core.SchedulerSequential},
			{core.SchedulerSequential, core.SchedulerSparse},
		} {
			hashes, stats := restoreAcross(t, progs[dir[0]], progs[dir[1]], snapAt, total)
			for i, got := range hashes {
				if got != refHashes[snapAt+i] {
					t.Fatalf("%s: %s snapshot restored under %s diverges at cycle %d",
						tc.name, dir[0], dir[1], snapAt+i)
				}
			}
			if stats != refStats {
				t.Fatalf("%s: %s snapshot restored under %s ends with different statistics",
					tc.name, dir[0], dir[1])
			}
		}
	}
}

// TestRestoreRejectsForeignSnapshot pins the fingerprint guard: a
// snapshot taken under one program must not restore into a structurally
// different one — here the same recipe plus one unconnected instance.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	progA, err := core.Compile(checkpointAssemble, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	progB, err := core.Compile(func(b *core.Builder) error {
		if err := checkpointAssemble(b); err != nil {
			return err
		}
		extra, err := pcl.NewSink("extra", nil)
		if err != nil {
			return err
		}
		b.Add(extra)
		return nil
	}, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := progA.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := progB.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore accepted a snapshot from a structurally different program")
	}
}

// TestProgramConcurrentSims stamps many sessions from one compiled
// program across goroutines and runs them in parallel — the tentpole
// claim of the Program/State split. Run under -race in CI; with a shared
// seed every session must also produce the identical hash sequence,
// proving the sessions share only immutable artifacts. The sessions are
// untraced, so clusters close: the cluster plan is the shared artifact,
// the idle signatures are each session's own.
func TestProgramConcurrentSims(t *testing.T) {
	prog, err := core.Compile(checkpointAssemble, core.WithSeed(3), core.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	hashes := make([][]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sim, err := prog.NewSim()
			if err != nil {
				errs[i] = err
				return
			}
			defer sim.Close()
			for c := 0; c < 100; c++ {
				if err := sim.Step(); err != nil {
					errs[i] = err
					return
				}
				hashes[i] = append(hashes[i], statusHash(sim))
			}
			if sim.Metrics().ClosedClusterCycles() == 0 {
				errs[i] = fmt.Errorf("no cluster closed in 100 cycles")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if len(hashes[i]) != len(hashes[0]) {
			t.Fatalf("session %d hashed %d cycles, session 0 hashed %d", i, len(hashes[i]), len(hashes[0]))
		}
		for c := range hashes[i] {
			if hashes[i][c] != hashes[0][c] {
				t.Fatalf("session %d diverges from session 0 at cycle %d under a shared seed", i, c)
			}
		}
	}
}
