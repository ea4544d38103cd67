package systems_test

import (
	"strings"
	"testing"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/simtest"
	"liberty/internal/systems"
)

func TestFig2aCMPRunsToCompletion(t *testing.T) {
	b := core.NewBuilder(core.WithSeed(1))
	cmp, err := systems.BuildCMP(b, "cmp", systems.CMPCfg{W: 2, H: 2, RefsPer: 40})
	if err != nil {
		t.Fatal(err)
	}
	sim := simtest.Build(t, b)
	ok, err := sim.RunUntil(func(*core.Sim) bool { return cmp.Done() }, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("CMP incomplete: %d refs done after %d cycles", cmp.Completed(), sim.Now())
	}
	if cmp.MeanLatency() <= 1 {
		t.Fatalf("mean memory latency %.2f implausible for a meshed CMP", cmp.MeanLatency())
	}
	// Shared lines must have seen coherence traffic.
	var invs int64
	for i := range cmp.Dir.L1s {
		invs += sim.Stats().CounterValue(cmp.Dir.L1s[i].Name() + ".invalidations")
	}
	if invs == 0 {
		t.Fatal("no invalidations despite a shared working set")
	}
}

func TestFig2bSensorNetDeliversFilteredReadings(t *testing.T) {
	b := core.NewBuilder(core.WithSeed(5))
	net, err := systems.BuildSensorNet(b, "sn", 3, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := simtest.Build(t, b)
	ok, err := sim.RunUntil(func(*core.Sim) bool { return net.Exhausted() }, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("sensor net did not drain")
	}
	// Let in-flight transmissions land.
	simtest.Run(t, sim, 200)
	if net.Base.Received() == 0 {
		t.Fatal("base station received nothing")
	}
	// Threshold 50 over uniform [0,100) drops roughly half; with 90
	// samples total, deliveries must be well under the total and every
	// delivered reading must pass the threshold.
	for _, v := range net.Base.Values() {
		r := v.(*ccl.Packet).Payload.(systems.Reading)
		if r.Value < 50 {
			t.Fatalf("reading %d passed a threshold-50 DSP", r.Value)
		}
	}
	if got := net.Base.Received(); got >= 90 {
		t.Fatalf("received %d of 90, filter seems inert", got)
	}
	var dropped int64
	for _, n := range net.Nodes {
		dropped += n.DSP.Dropped()
	}
	if dropped == 0 {
		t.Fatal("DSP dropped nothing")
	}
}

func TestFig2cGridTorus(t *testing.T) {
	b := core.NewBuilder(core.WithSeed(2))
	cmp, err := systems.BuildCMP(b, "grid", systems.CMPCfg{W: 4, H: 2, RefsPer: 30, Torus: true})
	if err != nil {
		t.Fatal(err)
	}
	sim := simtest.Build(t, b)
	ok, err := sim.RunUntil(func(*core.Sim) bool { return cmp.Done() }, 300000)
	if err != nil || !ok {
		t.Fatalf("grid incomplete: ok=%v err=%v done=%d", ok, err, cmp.Completed())
	}
}

func TestFig2dSystemOfSystems(t *testing.T) {
	b := core.NewBuilder(core.WithSeed(9))
	sos, err := systems.BuildSoS(b, "sos", systems.SoSCfg{
		Clusters: 2, SensorsPer: 2, SamplesPer: 16, Threshold: 10, Batch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := simtest.Build(t, b)
	// Run until the grid program finishes and summaries arrive.
	ok, err := sim.RunUntil(func(*core.Sim) bool {
		return sos.Grid.Done() && sos.SummariesDelivered() >= 4
	}, 300000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("SoS incomplete: readings=%d summaries=%d gridDone=%v",
			sos.TotalReadings(), sos.SummariesDelivered(), sos.Grid.Done())
	}
	// Conservation: collector-received summaries carry counts that sum to
	// a multiple of the batch size and never exceed total readings.
	var counted int
	for _, v := range sos.Collector.Values() {
		s := v.(*ccl.Packet).Payload.(systems.Summary)
		counted += s.Count
	}
	if counted == 0 || int64(counted) > sos.TotalReadings() {
		t.Fatalf("summary counts %d vs readings %d", counted, sos.TotalReadings())
	}
}

// TestFig2aCMPDeterministic: one seed must give one run. The directory
// once sent invalidations in map-iteration order, so the same build
// finished in a different cycle count from run to run — under every
// engine, the sequential oracle included.
func TestFig2aCMPDeterministic(t *testing.T) {
	run := func() (uint64, string) {
		b := core.NewBuilder(core.WithSeed(3), core.WithScheduler(core.SchedulerSequential))
		cmp, err := systems.BuildCMP(b, "cmp", systems.CMPCfg{W: 3, H: 3, RefsPer: 40, Think: 2, SharedPct: 40})
		if err != nil {
			t.Fatal(err)
		}
		sim := simtest.Build(t, b)
		ok, err := sim.RunUntil(func(*core.Sim) bool { return cmp.Done() }, 500000)
		if err != nil || !ok {
			t.Fatalf("CMP incomplete after %d cycles: %v", sim.Now(), err)
		}
		var stats strings.Builder
		sim.Stats().DumpPrefix(&stats, "")
		return sim.Now(), stats.String()
	}
	cycles, stats := run()
	for i := 0; i < 2; i++ {
		c, s := run()
		if c != cycles {
			t.Fatalf("run %d finished in %d cycles, the first in %d", i+1, c, cycles)
		}
		if s != stats {
			t.Fatalf("run %d: statistics differ from the first run's", i+1)
		}
	}
}
