package lse_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"liberty/lse"
)

// TestFacadeEndToEnd drives the whole public surface: registry-based
// instantiation, LSS construction through the options API, custom
// templates, algorithmic function registration, stats, observability and
// visualization.
func TestFacadeEndToEnd(t *testing.T) {
	// A user-defined template registered through the facade.
	lse.Register(&lse.Template{
		Name: "test.doubler",
		Doc:  "forwards its input twice... actually a pass-through for the test",
		Build: func(b *lse.Builder, name string, p lse.Params) (lse.Instance, error) {
			return b.Instantiate("pcl.queue", name, lse.Params{"capacity": p.Int("capacity", 2)})
		},
	})
	ev := lse.NewEventTracer(64).FilterInstances("snk")
	sim, err := lse.LoadLSS(`
		instance src : pcl.source(count = 12);
		instance d   : test.doubler(capacity = 3);
		instance snk : pcl.sink();
		src.out -> d.in;
		d.out -> snk.in;
	`, lse.WithSeed(4), lse.WithMetrics(), lse.WithTracer(ev))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	if got := sim.Stats().CounterValue("snk.received"); got != 12 {
		t.Fatalf("received %d, want 12", got)
	}

	// Scheduler metrics were collected and exported.
	if sim.Metrics() == nil {
		t.Fatal("WithMetrics left Sim.Metrics nil")
	}
	snap := lse.TakeSnapshot(sim)
	if snap.Scheduler == nil || snap.Scheduler.Wakes == 0 {
		t.Fatalf("snapshot has no scheduler counters: %+v", snap.Scheduler)
	}
	var js bytes.Buffer
	if err := lse.WriteStatsJSON(&js, sim); err != nil {
		t.Fatal(err)
	}
	var decoded lse.Snapshot
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("stats JSON does not round-trip: %v", err)
	}
	if decoded.Counters["snk.received"] != 12 {
		t.Fatalf("JSON snapshot counter = %d, want 12", decoded.Counters["snk.received"])
	}
	var csvOut bytes.Buffer
	if err := lse.WriteStatsCSV(&csvOut, sim); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut.String(), "counter,snk.received,value,12") {
		t.Fatalf("CSV snapshot missing counter row:\n%s", csvOut.String())
	}
	var hot bytes.Buffer
	if err := lse.WriteHotReport(&hot, sim, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hot.String(), "hot modules") {
		t.Fatalf("hot report malformed:\n%s", hot.String())
	}

	// The event tracer captured only the filtered instance.
	if ev.Len() == 0 {
		t.Fatal("event tracer captured nothing")
	}
	for _, e := range ev.Events() {
		if e.Src != "snk" && e.Dst != "snk" {
			t.Fatalf("filter leaked event %+v", e)
		}
	}

	var dot strings.Builder
	if err := lse.WriteDot(&dot, sim); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph liberty") {
		t.Fatal("WriteDot produced no graph")
	}
	if _, err := lse.ParseLSS("instance a : pcl.sink();"); err != nil {
		t.Fatal(err)
	}
	if _, err := lse.PortOf(sim.Instance("snk"), "in"); err != nil {
		t.Fatal(err)
	}
}

// TestProgramSurface drives the Program/Sim split through the facade:
// LoadLSS binds each Sim to a Program and CompileLSS stamps equivalent
// Sims from one shared Program.
func TestProgramSurface(t *testing.T) {
	spec := `
		instance src : pcl.source(count = 5);
		instance snk : pcl.sink();
		src.out -> snk.in;
	`
	loaded, err := lse.LoadLSS(spec, lse.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Program() == nil {
		t.Fatal("LoadLSS returned a Sim with no bound Program")
	}

	prog, err := lse.CompileLSS(spec, lse.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Fingerprint() != loaded.Program().Fingerprint() {
		t.Fatal("CompileLSS and LoadLSS disagree on the netlist fingerprint")
	}
	stamped, err := prog.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*lse.Sim{loaded, stamped} {
		if err := s.Run(30); err != nil {
			t.Fatal(err)
		}
	}
	a := loaded.Stats().CounterValue("snk.received")
	z := stamped.Stats().CounterValue("snk.received")
	if a != 5 || z != 5 {
		t.Fatalf("loaded=%d stamped=%d, want 5 and 5", a, z)
	}

}

// TestScheduleSnapshot drives the schedule introspection surface: an
// engine simulator exposes its static schedule through Sim.Schedule,
// the Snapshot's Schedule section, both stats exporters and the readable
// schedule report.
func TestScheduleSnapshot(t *testing.T) {
	spec := `
		instance src : pcl.source(count = 8);
		instance q   : pcl.queue(capacity = 2);
		instance snk : pcl.sink();
		src.out -> q.in;
		q.out -> snk.in;
	`
	sim, err := lse.LoadLSS(spec, lse.WithSeed(1), lse.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	info := sim.Schedule()
	if info == nil {
		t.Fatal("Schedule() = nil under the engine")
	}
	if info.CyclicSCCs != 0 || info.ResidueConns != 0 {
		t.Fatalf("linear pipeline reported cycles: %+v", info)
	}
	// Acyclic netlist: the static sweep replaces every fixed-point pass.
	if got := sim.Metrics().FixedPointIters(); got != 0 {
		t.Fatalf("fixed-point iters = %d, want 0 on an acyclic netlist", got)
	}

	snap := lse.TakeSnapshot(sim)
	if snap.Schedule == nil {
		t.Fatal("snapshot has no schedule section")
	}
	if snap.Schedule.SweepConns != 2 {
		t.Fatalf("schedule section = %+v", snap.Schedule)
	}
	var js bytes.Buffer
	if err := lse.WriteStatsJSON(&js, sim); err != nil {
		t.Fatal(err)
	}
	var decoded lse.Snapshot
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Schedule == nil || decoded.Schedule.ForwardLevels != snap.Schedule.ForwardLevels {
		t.Fatalf("schedule section does not round-trip through JSON: %+v", decoded.Schedule)
	}
	// The names that read constants of deleted engines are gone.
	var doc struct {
		Schedule  map[string]any `json:"schedule"`
		Scheduler map[string]any `json:"scheduler"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for section, names := range map[string][]string{
		"schedule":  {"scheduler", "workers", "scalar_conns", "spill_conns", "active_conns", "gated_conns"},
		"scheduler": {"parallel_rounds", "steals"},
	} {
		keys := doc.Schedule
		if section == "scheduler" {
			keys = doc.Scheduler
		}
		for _, name := range names {
			if _, ok := keys[name]; ok {
				t.Errorf("JSON %s section still carries %q", section, name)
			}
		}
	}
	var csvOut bytes.Buffer
	if err := lse.WriteStatsCSV(&csvOut, sim); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut.String(), "schedule,,sweep_conns,2") {
		t.Fatalf("CSV snapshot missing schedule rows:\n%s", csvOut.String())
	}
	var rep bytes.Buffer
	if err := lse.WriteScheduleReport(&rep, sim); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "static schedule") || !strings.Contains(rep.String(), "cycle breaks:   none") {
		t.Fatalf("schedule report malformed:\n%s", rep.String())
	}

	// The reference has no static schedule; the report says so.
	seq, err := lse.LoadLSS(spec, lse.WithScheduler(lse.SchedulerSequential))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Schedule() != nil {
		t.Fatal("sequential scheduler reports a static schedule")
	}
	if err := lse.WriteScheduleReport(&rep, seq); err == nil {
		t.Fatal("WriteScheduleReport succeeded without a static schedule")
	}
}

// TestPayloadArgumentInert: the pcl data-path templates no longer read
// payload, so like any undeclared template parameter it is ignored — an
// instance passing payload = "uint64" builds, and the model's statistics
// equal the same spec's without the argument.
func TestPayloadArgumentInert(t *testing.T) {
	const spec = `
		instance tsrc : pcl.source(rate = 1.0, count = 300%[1]s);
		instance tq   : pcl.queue(capacity = 8%[1]s);
		instance tdly : pcl.delay(latency = 2%[1]s);
		instance tsnk : pcl.sink(%[2]s);
		tsrc.out -> tq.in;
		tq.out   -> tdly.in;
		tdly.out -> tsnk.in;
		instance msrc : pcl.source(rate = 0.7, count = 200%[1]s);
		instance mq   : pcl.queue(capacity = 4%[1]s);
		instance msnk : pcl.sink();
		msrc.out -> mq.in;
		mq.out   -> msnk.in;
	`
	stats := func(src string) string {
		t.Helper()
		sim, err := lse.LoadLSS(src, lse.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(400); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		sim.Stats().Dump(&out)
		return out.String()
	}
	typed := stats(fmt.Sprintf(spec, `, payload = "uint64"`, `payload = "uint64"`))
	plain := stats(fmt.Sprintf(spec, "", ""))
	if typed != plain {
		t.Fatalf("payload argument changed the statistics:\n--- with payload\n%s--- without\n%s", typed, plain)
	}
	if !strings.Contains(plain, "tsnk.received") {
		t.Fatalf("statistics dump lacks the sink counter:\n%s", plain)
	}
}
