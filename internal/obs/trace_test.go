package obs_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/obs"
	"liberty/lse"
)

// traceDigests pins the FNV-64a of the text trace and of the VCD that
// lsc -trace -vcd writes for every shipped spec (20 cycles, seed 1), per
// scheduler. The tracer sees every resolution in the order the session
// makes it — a handler's drive, a fused lane operation's, a default's —
// so a digest moves whenever the resolution or wake order does.
var traceDigests = map[string][2]string{
	"bus.lss/sparse":            {"2fe7d08eb43c11d1", "19e45e0f3a1e89d0"},
	"bus.lss/sequential":        {"5f10fa4a5967d92d", "0819763343c430d0"},
	"mesh.lss/sparse":           {"191714aca8b72004", "a86c60dff71a86a7"},
	"mesh.lss/sequential":       {"0471463d9f0e6908", "77907e780450969d"},
	"pipeline.lss/sparse":       {"8446b6ff8084dcf1", "f68473d618160c4b"},
	"pipeline.lss/sequential":   {"8446b6ff8084dcf1", "f68473d618160c4b"},
	"quickstart.lss/sparse":     {"5f7e94ea721c6ad6", "16a42d7acf553034"},
	"quickstart.lss/sequential": {"5f7e94ea721c6ad6", "16a42d7acf553034"},
	"sensornet.lss/sparse":      {"21745d832d8ec7d2", "62c64481cdb88b75"},
	"sensornet.lss/sequential":  {"21745d832d8ec7d2", "62c64481cdb88b75"},
}

func TestTraceDigests(t *testing.T) {
	paths, err := filepath.Glob("../../specs/*.lss")
	if err != nil || len(paths) == 0 {
		t.Fatalf("specs: %v (%d found)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []core.SchedulerKind{core.SchedulerSparse, core.SchedulerSequential} {
			name := fmt.Sprintf("%s/%s", filepath.Base(path), kind)
			text, vcd := fnv.New64a(), fnv.New64a()
			tt, vt := &obs.TextTracer{W: text}, obs.NewVCDTracer(vcd)
			sim, err := lse.LoadLSSFile(path, string(src), nil, lse.WithSeed(1), lse.WithScheduler(kind),
				lse.WithTracer(tt), lse.WithTracer(vt))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := sim.Run(20); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := errors.Join(tt.Err(), vt.Err()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := [2]string{fmt.Sprintf("%016x", text.Sum64()), fmt.Sprintf("%016x", vcd.Sum64())}
			if want := traceDigests[name]; got != want {
				t.Errorf("%s: text, VCD digests %s, want %s", name, got, want)
			}
		}
	}
}
