package analysis

import (
	"fmt"
	"strings"

	core "liberty/internal/core"
	"liberty/internal/obs"
)

// instanceView is the slice of Base methods the passes need; every
// instance satisfies it through its embedded core.Base.
type instanceView interface {
	Ports() []*core.Port
	SourcePos() core.Pos
	HasHandlers() (react, start, end bool)
}

func view(inst core.Instance) instanceView { return inst.(instanceView) }

func posOf(inst core.Instance) core.Pos { return view(inst).SourcePos() }

// compositeView matches hierarchical instances — core.Composite itself
// and every library template that embeds it (ccl routers, nilib NICs) —
// via the methods only Composite provides. A plain type assertion on
// *core.Composite would miss the embedders.
type compositeView interface {
	Children() []core.Instance
	ExportNames() []string
}

func asComposite(inst core.Instance) (compositeView, bool) {
	c, ok := inst.(compositeView)
	return c, ok
}

// ownPorts returns the ports an instance itself declared, excluding
// composite export aliases (whose diagnostics belong to the owning child).
func ownPorts(inst core.Instance) []*core.Port {
	var out []*core.Port
	for _, p := range view(inst).Ports() {
		if p.Owner() == inst {
			out = append(out, p)
		}
	}
	return out
}

// defaultRule describes the default-control rule governing a port's
// connections — the engine default unless the port overrides it.
func defaultRule(p *core.Port) string {
	o := p.Opts()
	switch {
	case o.Control != nil:
		return "a user control function"
	case p.Dir() == core.In && o.DefaultAck != core.Unknown:
		return fmt.Sprintf("DefaultAck=%s", o.DefaultAck)
	case p.Dir() == core.Out && o.DefaultEnable != core.Unknown:
		return fmt.Sprintf("DefaultEnable=%s", o.DefaultEnable)
	case p.Dir() == core.In:
		return "the engine default (ack firm data)"
	default:
		return "the engine default (enable follows data)"
	}
}

// passUnconnected (LSE001) reports optional ports left without
// connections, naming the default-control rule that will govern any
// connection made to the port — the information a reader needs to decide
// whether "unconnected" was intentional partial specification. The ports
// are obs.UnconnectedPorts, the ones obs.WriteDot draws as dangling stubs.
func passUnconnected(s *core.Sim, r *Report) {
	for _, p := range obs.UnconnectedPorts(s) {
		r.Addf("LSE001", Info, posOf(p.Owner()), p.FullName(),
			"optional %s port unconnected (module adapts to width 0); connections here resolve via %s", p.Dir(), defaultRule(p))
	}
}

// passCycles (LSE002) reports each cyclic SCC of the dependency graph —
// the same Tarjan condensation the engine's static schedule compiles
// (Sim.SCCs), so analysis and execution agree on what a cycle is: a loop
// through a MarkSequential instance is none. Default resolution breaks
// every such cycle, so the finding is a warning naming the members and
// the break site.
func passCycles(s *core.Sim, r *Report) {
	for _, scc := range s.SCCs() {
		if !scc.Cyclic {
			continue
		}
		names := make([]string, len(scc.Members))
		for i, m := range scc.Members {
			names[i] = m.Name()
		}
		pos := scc.BreakSite.SourcePos()
		if pos.IsZero() && len(scc.Members) > 0 {
			pos = posOf(scc.Members[0])
		}
		r.Addf("LSE002", Warning, pos, scc.BreakSite.String(),
			"combinational cycle through %d module(s): %s; default resolution breaks it at %s (%d internal connection(s))",
			len(scc.Members), strings.Join(names, ", "), scc.BreakSite, len(scc.Internal))
	}
}

// passHandshake (LSE003) reports handshake-contract misuse that the
// runtime cannot distinguish from intent: enables committed without a
// data source, and inputs acknowledged by modules that never read them.
// Parallel connections between one port pair are no finding: they are
// how a port gets its width.
func passHandshake(s *core.Sim, r *Report) {
	for _, inst := range s.Instances() {
		if _, isComposite := asComposite(inst); isComposite {
			continue
		}
		react, _, end := view(inst).HasHandlers()
		for _, p := range ownPorts(inst) {
			o := p.Opts()
			if p.Dir() == core.Out && o.DefaultEnable == core.Yes && p.Width() > 0 {
				r.Addf("LSE003", Warning, posOf(inst), p.FullName(),
					"DefaultEnable=yes commits the enable signal even on connections whose data defaulted to Nothing — receivers see a firm empty handshake")
			}
			// An In port whose connections will be acknowledged by
			// default control while the owning module registered no
			// handler that could read them: transfers complete and the
			// data vanishes.
			if p.Dir() == core.In && p.Width() > 0 && !react && !end &&
				o.DefaultAck != core.No && o.Control == nil {
				r.Addf("LSE003", Warning, posOf(inst), p.FullName(),
					"input is acknowledged by default control but %q registers no react or cycle-end handler: transferred data is silently dropped", inst.Name())
			}
		}
	}
}

// passActivity (LSE007) reports instances whose cluster never closes
// for a structural reason the author may not have intended: a reactive
// handler with no connected input can never observe an offered signal,
// so its reactions could only depend on non-signal state, and the engine
// keeps the instance's cluster open — its reactive members are woken
// every cycle. Instances with a cycle-start handler, where such state is
// meant to be driven, are not reported.
func passActivity(s *core.Sim, r *Report) {
	for _, inst := range s.Instances() {
		if _, isComposite := asComposite(inst); isComposite {
			continue
		}
		react, start, _ := view(inst).HasHandlers()
		if !react || start {
			continue
		}
		connectedIn := 0
		for _, p := range ownPorts(inst) {
			if p.Dir() == core.In {
				connectedIn += p.Width()
			}
		}
		if connectedIn == 0 {
			r.Addf("LSE007", Info, posOf(inst), inst.Name(),
				"reactive handler with no connected input: the cluster of %q never closes, so its reactive members are woken every cycle (connect its inputs, or drive what does not depend on them from OnCycleStart)", inst.Name())
		}
	}
}

// passHierarchy (LSE006) reports composites that export nothing: their
// children are unreachable from outside the capsule. An export left
// unbound is LSE001's finding, on the child port it aliases.
func passHierarchy(s *core.Sim, r *Report) {
	for _, inst := range s.Instances() {
		comp, ok := asComposite(inst)
		if ok && len(comp.ExportNames()) == 0 {
			r.Addf("LSE006", Warning, posOf(inst), inst.Name(),
				"composite exports nothing: its %d child instance(s) cannot be reached from outside", len(comp.Children()))
		}
	}
}
