package analysis

import (
	core "liberty/internal/core"
	"liberty/internal/lss"
)

// NetlistPass is one check over a constructed netlist.
type NetlistPass struct {
	// Code is the stable diagnostic code the pass emits (e.g. "LSE002").
	Code string
	// Name is a short slug for tooling ("cycles").
	Name string
	// Doc is a one-line description surfaced by lslint -passes.
	Doc string
	// Run inspects the netlist and reports findings.
	Run func(s *core.Sim, r *Report)
}

// SpecPass is one check over a parsed LSS specification, for properties
// (scoping, parameter hygiene) that elaboration erases.
type SpecPass struct {
	Code string
	Name string
	Doc  string
	Run  func(f *lss.File, r *Report)
}

// The pass sets, in execution order. They are fixed at compile time:
// AnalyzeSim and Selection.Lint read them from any goroutine.
var (
	netlistPasses = []NetlistPass{
		{Code: "LSE001", Name: "unconnected", Doc: "optional ports left unconnected, with the default-control rule that governs them", Run: passUnconnected},
		{Code: "LSE002", Name: "cycles", Doc: "combinational cycles via the scheduler's SCC condensation, with the break site default resolution uses", Run: passCycles},
		{Code: "LSE003", Name: "handshake", Doc: "handshake-contract misuse: unconditional default enable, inputs acked with no handler to read them", Run: passHandshake},
		{Code: "LSE006", Name: "hierarchy", Doc: "composites that export nothing", Run: passHierarchy},
		{Code: "LSE007", Name: "activity", Doc: "reactive handler with no connected input: its cluster never closes, so its reactive members are woken every cycle", Run: passActivity},
	}
	specPasses = []SpecPass{
		{Code: "LSE005", Name: "params", Doc: "unused or shadowed parameters and lets", Run: passParams},
	}
)

// NetlistPasses returns the netlist passes in execution order.
func NetlistPasses() []NetlistPass { return netlistPasses }

// SpecPasses returns the spec passes in execution order.
func SpecPasses() []SpecPass { return specPasses }

// AnalyzeSim runs every netlist pass over a built simulator and returns
// the sorted report. It never mutates the simulator.
func AnalyzeSim(s *core.Sim) *Report {
	r := &Report{}
	for _, p := range netlistPasses {
		p.Run(s, r)
	}
	r.Sort()
	return r
}
