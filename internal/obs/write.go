package obs

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"

	core "liberty/internal/core"
)

// The statistics document is written by one walk of the session (doc.walk)
// that appends either form, JSON or CSV, into one pooled buffer: both
// forms read the same values in the same order, so they are one document
// by construction. The JSON is byte for byte what encoding/json makes of
// TakeSnapshot's Snapshot, indented by two spaces; the CSV is what
// encoding/csv makes of the kind,name,field,value rows.

// A ValueError is a statistic whose value the document cannot carry: a
// histogram field that is infinite or NaN, as a sum of finite samples
// that overflowed is. WriteJSON and WriteCSV return it before writing a
// byte.
type ValueError struct {
	Kind, Name, Field string
	Value             float64
}

func (e *ValueError) Error() string {
	return fmt.Sprintf("obs: %s %s: %s is %v, which the document cannot carry", e.Kind, e.Name, e.Field, e.Value)
}

// WriteJSON writes the simulator's statistics document to w as indented
// JSON, the Snapshot schema. It reads the simulator in one Sim.View and
// hands w the document in one Write; a *ValueError comes before any byte.
func WriteJSON(w io.Writer, s *core.Sim) error { return write(w, s, false) }

// WriteCSV writes the simulator's statistics document to w as CSV rows of
// the form kind,name,field,value — a flat layout spreadsheet tooling
// ingests without a schema. It is the JSON's document, field for field.
func WriteCSV(w io.Writer, s *core.Sim) error { return write(w, s, true) }

// doc is one document being written; docs pools them with their buffers.
type doc struct {
	csv  bool
	out  []byte // the document
	hist []byte // the histograms, which follow every counter
}

var docs = sync.Pool{New: func() any { return new(doc) }}

func write(w io.Writer, s *core.Sim, csv bool) error {
	d := docs.Get().(*doc)
	defer docs.Put(d)
	d.csv = csv
	var err error
	s.View(func() { err = d.walk(s) })
	if err != nil {
		return err
	}
	_, err = w.Write(d.out)
	return err
}

// walk writes the document into d.out: the session's identity, its
// statistics in one pass of StatSet.Each, the static schedule, the
// scheduler counters and the hot list.
func (d *doc) walk(s *core.Sim) error {
	b := d.out[:0]
	if !d.csv {
		b = append(b, '{')
	}
	b = d.num(b, 1, "sim", "", "cycles", uintVal(s.Now()))
	b = d.num(b, 1, "sim", "", "seed", intVal(s.Seed()))
	b = d.num(b, 1, "sim", "", "instances", intVal(int64(len(s.Instances()))))
	b = d.num(b, 1, "sim", "", "conns", intVal(int64(len(s.Conns()))))
	b = d.num(b, 1, "sim", "", "spill_hits", uintVal(s.SpillHits()))

	// Counters are written as they come; histograms go to d.hist, which
	// starts as the histograms object's '{' so its first member takes no
	// comma, and is appended after the last counter.
	h := d.hist[:0]
	if !d.csv {
		b = append(jsonKey(b, 1, "counters"), '{')
		h = append(h, '{')
	}
	var err error
	s.Stats().Each(func(name string, c *core.Counter, hg *core.Histogram) {
		switch {
		case err != nil:
		case c != nil && d.csv:
			b = append(strconv.AppendInt(csvRow(b, "counter", name, "value"), c.Value(), 10), '\n')
		case c != nil:
			b = strconv.AppendInt(jsonKey(b, 2, name), c.Value(), 10)
		default:
			h, err = d.histogram(h, name, hg)
		}
	})
	if err != nil {
		return err
	}
	if !d.csv {
		b = jsonClose(b, 1, '}')
		b = jsonClose(append(jsonKey(b, 1, "histograms"), h...), 1, '}')
	} else {
		b = append(b, h...)
	}
	d.hist = h

	if info := s.Schedule(); info != nil {
		b = d.schedule(b, info)
	}
	if m := s.Metrics(); m != nil {
		b = d.scheduler(b, m, len(s.Conns()))
		b = d.hot(b, hotList(m))
	}
	if !d.csv {
		b = append(jsonClose(b, 0, '}'), '\n')
	}
	d.out = b
	return nil
}

// histogram appends one histogram's fields, or refuses one the JSON
// cannot carry.
func (d *doc) histogram(b []byte, name string, h *core.Histogram) ([]byte, error) {
	fs := [...]struct {
		key string
		v   float64
	}{
		{"sum", h.Sum()}, {"mean", h.Mean()}, {"min", h.Min()}, {"max", h.Max()},
		{"p50", h.P50()}, {"p95", h.P95()}, {"p99", h.P99()},
	}
	for _, f := range fs {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return b, &ValueError{Kind: "histogram", Name: name, Field: f.key, Value: f.v}
		}
	}
	b = d.open(b, 2, name, '{')
	b = d.num(b, 3, "histogram", name, "count", intVal(h.Count()))
	for _, f := range fs {
		b = d.num(b, 3, "histogram", name, f.key, floatVal(f.v))
	}
	return d.close(b, 2, '}'), nil
}

func (d *doc) schedule(b []byte, info *core.ScheduleInfo) []byte {
	b = d.open(b, 1, "schedule", '{')
	for _, f := range [...]struct {
		key       string
		v         int
		omitEmpty bool
	}{
		{"modules", info.Modules, false},
		{"sccs", info.SCCs, false},
		{"cyclic_sccs", info.CyclicSCCs, false},
		{"largest_scc", info.LargestSCC, false},
		{"forward_levels", info.ForwardLevels, false},
		{"ack_levels", info.AckLevels, false},
		{"sweep_conns", info.SweepConns, false},
		{"residue_conns", info.ResidueConns, false},
		{"ack_sweep_conns", info.AckSweepConns, false},
		{"ack_residue_conns", info.AckResidueConns, false},
		{"active_insts", info.ActiveInsts, true},
		{"gated_insts", info.GatedInsts, true},
		{"always_active", info.AlwaysActive, true},
		{"clusters", info.Clusters, true},
		{"closable_clusters", info.ClosableClusters, true},
	} {
		if !f.omitEmpty || f.v != 0 || d.csv {
			b = d.num(b, 2, "schedule", "", f.key, intVal(int64(f.v)))
		}
	}
	if d.csv {
		for i, site := range info.BreakSites {
			b = append(csvField(csvRow(b, "schedule", strconv.Itoa(i), "break_site"), site), '\n')
		}
	} else if len(info.BreakSites) > 0 {
		b = append(jsonKey(b, 2, "break_sites"), '[')
		for _, site := range info.BreakSites {
			b = jsonString(jsonElem(b, 3), site)
		}
		b = jsonClose(b, 2, ']')
	}
	return d.close(b, 1, '}')
}

// sigKinds is the CSV's order of the per-kind scheduler rows; the JSON
// writes each per-kind object in the order of the kinds' names.
var (
	sigKinds     = [...]core.SigKind{core.SigData, core.SigEnable, core.SigAck}
	sigKindsJSON = [...]core.SigKind{core.SigAck, core.SigData, core.SigEnable}
)

func (d *doc) scheduler(b []byte, m *core.Metrics, conns int) []byte {
	var share float64
	if n := m.Cycles() * uint64(conns); n > 0 {
		share = float64(m.ClosedConnCycles()) / float64(n)
	}
	b = d.open(b, 1, "scheduler", '{')
	b = d.num(b, 2, "scheduler", "", "cycles", uintVal(m.Cycles()))
	b = d.num(b, 2, "scheduler", "", "wakes", uintVal(m.Wakes()))
	b = d.num(b, 2, "scheduler", "", "reacts", uintVal(m.Reacts()))
	b = d.num(b, 2, "scheduler", "", "fixed_point_iters", uintVal(m.FixedPointIters()))
	b = d.num(b, 2, "scheduler", "", "active_insts", uintVal(m.ActiveInstances()))
	b = d.num(b, 2, "scheduler", "", "skipped_wakes", uintVal(m.SkippedWakes()))
	b = d.num(b, 2, "scheduler", "", "closed_clusters", uintVal(m.ClosedClusterCycles()))
	b = d.num(b, 2, "scheduler", "", "closed_conn_share", floatVal(share))
	if d.csv {
		for _, k := range sigKinds {
			b = d.num(b, 2, "scheduler", k.String(), "default_fallbacks", uintVal(m.DefaultFallbacks(k)))
			b = d.num(b, 2, "scheduler", k.String(), "cycle_breaks", uintVal(m.CycleBreaks(k)))
		}
	} else {
		for _, field := range [...]struct {
			key string
			get func(core.SigKind) uint64
		}{{"default_fallbacks", m.DefaultFallbacks}, {"cycle_breaks", m.CycleBreaks}} {
			b = append(jsonKey(b, 2, field.key), '{')
			for _, k := range sigKindsJSON {
				b = strconv.AppendUint(jsonKey(b, 3, k.String()), field.get(k), 10)
			}
			b = jsonClose(b, 2, '}')
		}
	}
	return d.close(b, 1, '}')
}

func (d *doc) hot(b []byte, hot []core.InstanceMetric) []byte {
	if d.csv {
		for _, im := range hot {
			b = d.num(b, 0, "instance", im.Name, "reacts", uintVal(im.Reacts))
			b = d.num(b, 0, "instance", im.Name, "react_time_ns", intVal(im.ReactTime.Nanoseconds()))
		}
		return b
	}
	if len(hot) == 0 {
		return b
	}
	b = append(jsonKey(b, 1, "hot"), '[')
	for _, im := range hot {
		b = append(jsonElem(b, 2), '{')
		b = jsonString(jsonKey(b, 3, "name"), im.Name)
		b = strconv.AppendUint(jsonKey(b, 3, "reacts"), im.Reacts, 10)
		b = strconv.AppendInt(jsonKey(b, 3, "react_time_ns"), im.ReactTime.Nanoseconds(), 10)
		b = jsonClose(b, 2, '}')
	}
	return jsonClose(b, 1, ']')
}

// hotList returns the per-instance react profile, hottest first: by
// react time, then by react count.
func hotList(m *core.Metrics) []core.InstanceMetric {
	hot := m.Instances()
	slices.SortStableFunc(hot, func(a, b core.InstanceMetric) int {
		return cmp.Or(cmp.Compare(b.ReactTime, a.ReactTime), cmp.Compare(b.Reacts, a.Reacts))
	})
	return hot
}

// value is one number of the document.
type value struct {
	kind byte // 'i' int64, 'u' uint64, 'f' float64
	i    int64
	u    uint64
	f    float64
}

func intVal(v int64) value     { return value{kind: 'i', i: v} }
func uintVal(v uint64) value   { return value{kind: 'u', u: v} }
func floatVal(v float64) value { return value{kind: 'f', f: v} }

// num appends one field: a JSON member at depth, or the CSV row
// kind,name,key,value.
func (d *doc) num(b []byte, depth int, kind, name, key string, v value) []byte {
	if d.csv {
		b = csvRow(b, kind, name, key)
		switch v.kind {
		case 'i':
			b = strconv.AppendInt(b, v.i, 10)
		case 'u':
			b = strconv.AppendUint(b, v.u, 10)
		default:
			b = strconv.AppendFloat(b, v.f, 'g', -1, 64)
		}
		return append(b, '\n')
	}
	b = jsonKey(b, depth, key)
	switch v.kind {
	case 'i':
		return strconv.AppendInt(b, v.i, 10)
	case 'u':
		return strconv.AppendUint(b, v.u, 10)
	}
	return jsonFloat(b, v.f)
}

// open and close bracket a JSON object or array member; the CSV has no
// brackets.
func (d *doc) open(b []byte, depth int, key string, c byte) []byte {
	if d.csv {
		return b
	}
	return append(jsonKey(b, depth, key), c)
}

func (d *doc) close(b []byte, depth int, c byte) []byte {
	if d.csv {
		return b
	}
	return jsonClose(b, depth, c)
}

// indent is a newline and the indentation of the document's deepest
// level.
const indent = "\n        "

// jsonElem starts a value at depth: a comma unless it is the first of
// its object or array, a newline and the indentation.
func jsonElem(b []byte, depth int) []byte {
	if c := b[len(b)-1]; c != '{' && c != '[' {
		b = append(b, ',')
	}
	return append(b, indent[:1+2*depth]...)
}

// jsonKey starts an object member at depth.
func jsonKey(b []byte, depth int, key string) []byte {
	return append(jsonString(jsonElem(b, depth), key), ':', ' ')
}

// jsonClose ends the object or array whose members are at depth+1; an
// empty one stays on its line.
func jsonClose(b []byte, depth int, c byte) []byte {
	if last := b[len(b)-1]; last != '{' && last != '[' {
		b = append(b, indent[:1+2*depth]...)
	}
	return append(b, c)
}

// jsonFloat formats a finite float as encoding/json does: like
// strconv's shortest 'f', switching to 'e' below 1e-6 and from 1e21, with
// a one-digit negative exponent unpadded.
func jsonFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hex = "0123456789abcdef"

// jsonString appends s quoted as encoding/json quotes it: HTML-safe,
// with invalid UTF-8 replaced by U+FFFD and U+2028/U+2029 escaped.
func jsonString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// csvRow starts the CSV row kind,name,key, leaving the value to the
// caller. kind and key are the document's own identifiers and need no
// quoting.
func csvRow(b []byte, kind, name, key string) []byte {
	b = append(b, kind...)
	b = csvField(append(b, ','), name)
	b = append(append(b, ','), key...)
	return append(b, ',')
}

// csvField appends one field as encoding/csv writes it with its default
// comma and line ending.
func csvField(b []byte, f string) []byte {
	if !csvNeedsQuotes(f) {
		return append(b, f...)
	}
	b = append(b, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, f[i])
	}
	return append(b, '"')
}

func csvNeedsQuotes(f string) bool {
	if f == "" {
		return false
	}
	if f == `\.` {
		return true
	}
	for i := 0; i < len(f); i++ {
		if c := f[i]; c == '\n' || c == '\r' || c == '"' || c == ',' {
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(f)
	return unicode.IsSpace(r)
}
