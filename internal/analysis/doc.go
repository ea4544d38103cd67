// Package analysis is the netlist static-analysis engine: a diagnostics
// framework plus a registry of checks ("passes") that inspect a
// constructed netlist and its LSS source for contract misuse,
// combinational cycles and hierarchy mistakes — the properties the
// paper's composability story assumes hold, surfaced at composition time
// instead of as silent wrong behavior or runtime panics. A code stays
// only while it finds something true and warns falsely on none of the
// paper's models: a closed request/response loop has no sink by design,
// and parallel connections between one port pair are a port's width.
//
// Diagnostics carry stable codes so suppressions and tooling survive
// message rewording:
//
//	LSE000  parse/elaboration/build failure (wraps front-end errors)
//	LSE001  optional port left unconnected (info; reports the
//	        default-control rule that governs the port's connections)
//	LSE002  combinational cycle (warning): members and the break site
//	        default resolution uses
//	LSE003  handshake-contract misuse: unconditional default enable,
//	        inputs acked by a module that never reads them
//	LSE005  parameter hygiene: unused or shadowed parameters and lets
//	LSE006  hierarchy: composites exporting nothing
//	LSE007  reactive handler with no connected input (info): its
//	        cluster never closes
//
// LSE004 and LSE008–LSE013 are retired; their numbers are not reused.
//
// Passes come in two kinds. Netlist passes (AnalyzeSim) run over a built
// *core.Sim — the combinational-cycle pass reuses the engine's own Tarjan
// SCC condensation (core.Sim.SCCs), so the analyzer and the engine's
// static schedule agree on what a cycle is. Spec passes run over the
// parsed LSS AST inside LintSource, where parameter scoping is still
// visible.
//
// Entry points:
//
//   - LintSource: one spec end to end — parse, spec passes, elaborate and
//     build (front-end failures become LSE000 diagnostics), netlist
//     passes, `lse:ignore` suppression. What cmd/lslint runs.
//   - AnalyzeSim: netlist passes only, over an already-built simulator.
//   - StrictOption (lse.WithStrictAnalysis): a build option that makes
//     Build fail when any diagnostic reaches warning severity.
//     ParseStrict reads the lsc -strict and /v1 "strict" value.
//
// Suppression: a spec comment `# lse:ignore LSE001` (or `// lse:ignore`,
// optionally listing several comma-separated codes, or no codes to ignore
// everything) silences matching diagnostics on the same line, or on the
// next line when the comment stands alone.
package analysis
