package liberty_test

import (
	"runtime"
	"sync"
	"testing"

	core "liberty/internal/core"
)

// TestWovenConcurrentSessionsRace stamps 2×GOMAXPROCS sessions from one
// woven-compiled Program and steps them all concurrently. The woven plan
// lives in the immutable Program and is shared by pointer across every
// session, so under -race this pins the plan's read-only discipline: the
// fused kernels, dirty runs and handler rosters must never be written
// after compile. Determinism is the oracle — every session runs the same
// seed, so all hash sequences must be identical.
func TestWovenConcurrentSessionsRace(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	prog, err := core.Compile(checkpointAssemble("uint64"),
		core.WithSeed(7), core.WithScheduler(core.SchedulerWoven))
	if err != nil {
		t.Fatal(err)
	}
	const cycles, sessions = 60, 8
	hashes := make([][]uint64, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := &cycleHasher{}
			sim, err := prog.NewSim(core.WithTracer(h))
			if err != nil {
				errs[i] = err
				return
			}
			defer sim.Close()
			if errs[i] = sim.Run(cycles); errs[i] != nil {
				return
			}
			hashes[i] = h.hashes
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i := 1; i < sessions; i++ {
		for c := range hashes[0] {
			if hashes[i][c] != hashes[0][c] {
				t.Fatalf("session %d diverges from session 0 at cycle %d", i, c)
			}
		}
	}
}
