// Package obs is the engine's observability layer: it turns the raw
// collection hooks the core scheduler exposes (scheduler Metrics, the
// Tracer callback stream, the StatSet) into things an operator can use —
// structured ring-buffer event traces with glob filtering, JSON and CSV
// statistics snapshots (which internal/simd serves live over HTTP), a
// per-instance "hot module" report, and the offline viewers: a text
// signal trace (TextTracer), a VCD waveform (VCDTracer) and a Graphviz
// drawing of the netlist (WriteDot).
//
// The statistics document's schema is the Snapshot struct: TakeSnapshot
// fills it and simd.Client and lse decode it. WriteJSON and WriteCSV do
// not build it: they write the document directly, appending it into one
// pooled buffer in one ordered walk of the StatSet under one Sim.View,
// with no map, reflection or encoding/json on the path.
// TestWriteJSONEqualsSnapshot and FuzzStatsJSON hold the two equal:
// WriteJSON's bytes are json.MarshalIndent(TakeSnapshot(s), "", "  ")
// and a newline, and WriteCSV's are encoding/csv's of the same rows.
//
// The paper's pitch is that structural models are inspectable; this
// package is where that inspection happens at run time. Collection stays
// in internal/core (the scheduler records into core.Metrics when a
// simulator is built with core.WithMetrics); obs depends on core, never
// the other way around, so the engine's hot paths carry no export logic.
package obs
