package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	core "liberty/internal/core"
)

// Severity ranks a diagnostic's impact. The integer values double as
// process exit codes (cmd/lslint exits with the report's maximum).
type Severity int

const (
	// Info reports structure worth knowing about that needs no action —
	// e.g. an optional port deliberately left unconnected.
	Info Severity = 0
	// Warning reports likely-unintended structure the engine will still
	// simulate deterministically.
	Warning Severity = 1
	// Error reports a spec with no well-defined netlist: one that does
	// not parse, elaborate or build (LSE000).
	Error Severity = 2
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic is one finding: a stable code, a severity, the construct it
// is anchored to, and — when the netlist came from a spec — a source
// position.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	File     string   `json:"file,omitempty"`
	Line     int      `json:"line,omitempty"`
	// Where names the anchor construct: "instance", "instance.port" or a
	// connection description.
	Where   string `json:"where,omitempty"`
	Message string `json:"message"`
}

// Pos returns the diagnostic's source position as a core.Pos.
func (d Diagnostic) Pos() core.Pos { return core.Pos{File: d.File, Line: d.Line} }

func (d Diagnostic) String() string {
	var sb strings.Builder
	if p := d.Pos(); !p.IsZero() {
		sb.WriteString(p.String())
		sb.WriteString(": ")
	}
	fmt.Fprintf(&sb, "%s[%s]", d.Code, d.Severity)
	if d.Where != "" {
		sb.WriteString(" ")
		sb.WriteString(d.Where)
	}
	sb.WriteString(": ")
	sb.WriteString(d.Message)
	return sb.String()
}

// Report is an ordered collection of diagnostics.
type Report struct {
	Diags []Diagnostic
}

// Add appends a diagnostic.
func (r *Report) Add(d Diagnostic) { r.Diags = append(r.Diags, d) }

// Addf appends a diagnostic with a formatted message.
func (r *Report) Addf(code string, sev Severity, pos core.Pos, where, format string, args ...any) {
	r.Add(Diagnostic{
		Code: code, Severity: sev,
		File: pos.File, Line: pos.Line,
		Where: where, Message: fmt.Sprintf(format, args...),
	})
}

// Len returns the number of diagnostics.
func (r *Report) Len() int { return len(r.Diags) }

// Max returns the highest severity present, or (0, false) for an empty
// report.
func (r *Report) Max() (Severity, bool) {
	if len(r.Diags) == 0 {
		return 0, false
	}
	max := r.Diags[0].Severity
	for _, d := range r.Diags[1:] {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max, true
}

// CountAtLeast returns how many diagnostics have severity >= min.
func (r *Report) CountAtLeast(min Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity >= min {
			n++
		}
	}
	return n
}

// Sort puts diagnostics into the canonical deterministic order: by file,
// line, code, anchor, then message. Positionless diagnostics (pure Go
// netlists) sort before positioned ones of the same file name ("").
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Where != b.Where {
			return a.Where < b.Where
		}
		return a.Message < b.Message
	})
}

// WriteText renders the report one diagnostic per line, followed by a
// summary line, returning the first writer error.
func (r *Report) WriteText(w io.Writer) error {
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, d := range r.Diags {
		emit("%s\n", d)
	}
	var counts [Error + 1]int
	for _, d := range r.Diags {
		if d.Severity >= Info && d.Severity <= Error {
			counts[d.Severity]++
		}
	}
	emit("%d diagnostics: %d error(s), %d warning(s), %d info\n",
		len(r.Diags), counts[Error], counts[Warning], counts[Info])
	return err
}

// WriteJSON renders the report as an indented JSON object with a
// "diagnostics" array and per-severity counts.
func (r *Report) WriteJSON(w io.Writer) error {
	diags := r.Diags
	if diags == nil {
		diags = []Diagnostic{}
	}
	payload := struct {
		Diagnostics []Diagnostic `json:"diagnostics"`
		Errors      int          `json:"errors"`
		Warnings    int          `json:"warnings"`
		Infos       int          `json:"infos"`
	}{Diagnostics: diags}
	for _, d := range diags {
		switch d.Severity {
		case Error:
			payload.Errors++
		case Warning:
			payload.Warnings++
		default:
			payload.Infos++
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}
