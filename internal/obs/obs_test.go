package obs_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/obs"
	"liberty/internal/pcl"
	"liberty/lse"
)

// buildChain assembles a source → queue → sink pipeline with metrics on
// and the given extra options.
func buildChain(t *testing.T, opts ...core.BuildOption) *core.Sim {
	t.Helper()
	b := core.NewBuilder(append([]core.BuildOption{core.WithSeed(1), core.WithMetrics()}, opts...)...)
	src, err := pcl.NewSource("src", core.Params{"count": int64(20)})
	if err != nil {
		t.Fatal(err)
	}
	q, err := pcl.NewQueue("q", core.Params{"capacity": int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	snk, err := pcl.NewSink("snk", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(src)
	b.Add(q)
	b.Add(snk)
	b.Connect(src, "out", q, "in")
	b.Connect(q, "out", snk, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestEventTracerRingAndOrder(t *testing.T) {
	ev := obs.NewEventTracer(10)
	sim := buildChain(t, core.WithTracer(ev))
	if err := sim.Run(50); err != nil {
		t.Fatal(err)
	}
	if got := ev.Len(); got != 10 {
		t.Fatalf("ring holds %d events, want capacity 10", got)
	}
	events := ev.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("events out of order: %v after %v", events[i], events[i-1])
		}
	}
	// A 50-cycle run's ring tail must come from the final cycles.
	if events[0].Cycle < 45 {
		t.Fatalf("oldest retained event from cycle %d, want the run's tail", events[0].Cycle)
	}
	var txt bytes.Buffer
	if err := ev.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(txt.String(), "\n"); got != 10 {
		t.Fatalf("WriteText produced %d lines, want 10", got)
	}
}

func TestEventTracerFilters(t *testing.T) {
	inst := obs.NewEventTracer(256).FilterInstances("q")
	port := obs.NewEventTracer(256).FilterPorts("snk.*")
	sim := buildChain(t, core.WithTracer(inst), core.WithTracer(port))
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if inst.Len() == 0 || port.Len() == 0 {
		t.Fatalf("filters dropped everything: inst=%d port=%d", inst.Len(), port.Len())
	}
	for _, e := range inst.Events() {
		if e.Src != "q" && e.Dst != "q" {
			t.Fatalf("instance filter leaked %+v", e)
		}
	}
	for _, e := range port.Events() {
		if !strings.Contains(e.Conn, "snk.") {
			t.Fatalf("port filter leaked %+v", e)
		}
	}
}

func TestWriteDot(t *testing.T) {
	sim := buildChain(t)
	var sb strings.Builder
	if err := obs.WriteDot(&sb, sim); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph liberty", `"src"`, `"snk"`, `"src" -> "q"`, `"q" -> "snk"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteDotDrawsLeavesOnly: mesh.lss's network and its routers are
// library templates that embed core.Composite. The drawing gives none of
// them a box: every node it draws has an edge, and every edge joins two
// drawn nodes or a node and a dangling-port stub.
func TestWriteDotDrawsLeavesOnly(t *testing.T) {
	src, err := os.ReadFile("../../specs/mesh.lss")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := lse.LoadLSS(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := obs.WriteDot(&sb, sim); err != nil {
		t.Fatal(err)
	}
	node := regexp.MustCompile(`^\s*"([^"]+)";$`)
	edge := regexp.MustCompile(`^\s*"([^"]+)" -> "([^"]+)" \[`)
	drawn, linked, edges := map[string]bool{}, map[string]bool{}, 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if m := node.FindStringSubmatch(line); m != nil {
			drawn[m[1]] = true
		} else if m := edge.FindStringSubmatch(line); m != nil && !strings.HasPrefix(m[1], "__dangling") && !strings.HasPrefix(m[2], "__dangling") {
			for _, end := range m[1:] {
				if !drawn[end] {
					t.Errorf("edge %s -> %s: %s is no drawn node", m[1], m[2], end)
				}
				linked[end] = true
			}
			edges++
		}
	}
	if edges != len(sim.Conns()) {
		t.Errorf("%d edges between instances, want one per conn (%d)", edges, len(sim.Conns()))
	}
	for name := range drawn {
		if !linked[name] {
			t.Errorf("%s is drawn without an edge", name)
		}
	}
}

// failAfter accepts n bytes, then fails every write; calls counts the
// writes it is asked for after the first failure.
type failAfter struct{ n, calls int }

var errDeviceFull = errors.New("device full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n < 0 {
		f.calls++
		return 0, errDeviceFull
	}
	if len(p) > f.n {
		k := f.n
		f.n = -1
		return k, errDeviceFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestTracersLatchWriteErrors: the VCD and text tracers keep the first
// error their writer returns, report it from Err, and stop writing.
func TestTracersLatchWriteErrors(t *testing.T) {
	for _, n := range []int{0, 100} {
		vw, tw := &failAfter{n: n}, &failAfter{n: n}
		vcd, text := obs.NewVCDTracer(vw), &obs.TextTracer{W: tw}
		if err := buildChain(t, core.WithTracer(vcd), core.WithTracer(text)).Run(5); err != nil {
			t.Fatal(err)
		}
		for name, tr := range map[string]interface{ Err() error }{"VCD": vcd, "text": text} {
			if !errors.Is(tr.Err(), errDeviceFull) {
				t.Errorf("%s tracer after %d bytes: Err() = %v, want the writer's error", name, n, tr.Err())
			}
		}
		if calls := vw.calls + tw.calls; calls != 0 {
			t.Errorf("after %d bytes: %d writes after the first error", n, calls)
		}
	}
}

func TestVCDTracerEmitsWaveform(t *testing.T) {
	var sb strings.Builder
	sim := buildChain(t, core.WithTracer(obs.NewVCDTracer(&sb)))
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale", "$var wire 2", "c0_data", "c0_enable", "c0_ack",
		"$enddefinitions", "#0", "#2", "b10 ", // at least one yes-resolution
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q:\n%s", want, out[:min(len(out), 600)])
		}
	}
}

func TestSnapshotJSONAndCSV(t *testing.T) {
	sim := buildChain(t)
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	snap := obs.TakeSnapshot(sim)
	if snap.Cycles != 100 || snap.Instances != 3 || snap.Conns != 2 {
		t.Fatalf("snapshot identity wrong: %+v", snap)
	}
	if snap.Counters["snk.received"] != 20 {
		t.Fatalf("snk.received = %d, want 20", snap.Counters["snk.received"])
	}
	if _, ok := snap.Histograms["q.occupancy"]; !ok {
		t.Fatal("snapshot missing q.occupancy histogram")
	}
	if snap.Scheduler == nil || snap.Scheduler.Cycles != 100 || snap.Scheduler.Wakes == 0 {
		t.Fatalf("scheduler stats missing or empty: %+v", snap.Scheduler)
	}
	if len(snap.Hot) != 3 {
		t.Fatalf("hot profile has %d instances, want 3", len(snap.Hot))
	}
	for i := 1; i < len(snap.Hot); i++ {
		if snap.Hot[i].ReactTimeNs > snap.Hot[i-1].ReactTimeNs {
			t.Fatal("hot profile not sorted by react time")
		}
	}

	var js bytes.Buffer
	if err := obs.WriteJSON(&js, sim); err != nil {
		t.Fatal(err)
	}
	var rt obs.Snapshot
	if err := json.Unmarshal(js.Bytes(), &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Scheduler == nil || rt.Scheduler.Wakes != snap.Scheduler.Wakes {
		t.Fatalf("JSON round-trip lost scheduler stats")
	}

	var cv bytes.Buffer
	if err := obs.WriteCSV(&cv, sim); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&cv).ReadAll()
	if err != nil {
		t.Fatalf("CSV output unparsable: %v", err)
	}
	found := map[string]bool{}
	got := map[cell]string{}
	for _, r := range rows {
		if len(r) != 4 {
			t.Fatalf("row %v has %d fields, want 4", r, len(r))
		}
		found[r[0]] = true
		got[cell{r[0], r[1], r[2]}] = r[3]
	}
	for _, kind := range []string{"sim", "counter", "histogram", "schedule", "scheduler", "instance"} {
		if !found[kind] {
			t.Fatalf("CSV missing %q rows", kind)
		}
	}

	// The CSV and the JSON are one document: every JSON value is a CSV
	// row with the same value, and a CSV row the JSON lacks is a zero the
	// JSON omits (an omitempty field of its section).
	var doc map[string]any
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := flatten(doc)
	for c, v := range want {
		g, ok := got[c]
		if !ok {
			t.Errorf("JSON %v = %v has no CSV row", c, v)
		} else if !sameValue(v, g) {
			t.Errorf("%v: JSON %v, CSV %q", c, v, g)
		}
	}
	omitempty := omitemptyKeys(obs.ScheduleStats{})
	for c, g := range got {
		if _, ok := want[c]; !ok && !(c.kind == "schedule" && omitempty[c.field] && g == "0") {
			t.Errorf("CSV row %v = %q is not in the JSON", c, g)
		}
	}
	// The names that read constants of deleted engines are in neither.
	removed := map[string][]string{
		"schedule":  {"scheduler", "workers", "scalar_conns", "spill_conns", "active_conns", "gated_conns"},
		"scheduler": {"parallel_rounds", "steals"},
	}
	for kind, fields := range removed {
		section, _ := doc[kind].(map[string]any)
		for _, f := range fields {
			if _, ok := section[f]; ok {
				t.Errorf("JSON %s section carries %q", kind, f)
			}
			if _, ok := got[cell{kind, "", f}]; ok {
				t.Errorf("CSV carries %s,,%s", kind, f)
			}
		}
	}
}

// cell addresses one value of the statistics document in the CSV's
// kind,name,field layout.
type cell struct{ kind, name, field string }

// flatten lays the decoded JSON document out as the CSV's cells.
func flatten(doc map[string]any) map[cell]any {
	out := map[cell]any{}
	for k, v := range doc {
		switch k {
		case "counters":
			for n, x := range v.(map[string]any) {
				out[cell{"counter", n, "value"}] = x
			}
		case "histograms":
			for n, h := range v.(map[string]any) {
				for f, x := range h.(map[string]any) {
					out[cell{"histogram", n, f}] = x
				}
			}
		case "schedule", "scheduler":
			for f, x := range v.(map[string]any) {
				switch x := x.(type) {
				case []any: // break_sites: one break_site row per element
					for i, e := range x {
						out[cell{k, strconv.Itoa(i), strings.TrimSuffix(f, "s")}] = e
					}
				case map[string]any: // per signal kind
					for sig, y := range x {
						out[cell{k, sig, f}] = y
					}
				default:
					out[cell{k, "", f}] = x
				}
			}
		case "hot":
			for _, e := range v.([]any) {
				inst := e.(map[string]any)
				for f, x := range inst {
					if f != "name" {
						out[cell{"instance", inst["name"].(string), f}] = x
					}
				}
			}
		default:
			out[cell{"sim", "", k}] = v
		}
	}
	return out
}

// sameValue compares a decoded JSON value with a CSV field.
func sameValue(v any, field string) bool {
	if f, ok := v.(float64); ok {
		g, err := strconv.ParseFloat(field, 64)
		return err == nil && g == f
	}
	return v == field
}

// omitemptyKeys lists the JSON keys of a struct's omitempty fields.
func omitemptyKeys(v any) map[string]bool {
	keys := map[string]bool{}
	t := reflect.TypeOf(v)
	for i := 0; i < t.NumField(); i++ {
		if name, opts, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); opts == "omitempty" {
			keys[name] = true
		}
	}
	return keys
}

func TestHotReport(t *testing.T) {
	sim := buildChain(t)
	if err := sim.Run(50); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := obs.WriteHotReport(&out, sim, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top 2 of 3") {
		t.Fatalf("report header wrong:\n%s", out.String())
	}

	// Without metrics the report must refuse, not fabricate.
	b := core.NewBuilder()
	s2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteHotReport(&out, s2, 2); err == nil {
		t.Fatal("hot report without metrics should error")
	}
}
