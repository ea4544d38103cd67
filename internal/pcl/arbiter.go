package pcl

import (
	"fmt"

	core "liberty/internal/core"
)

// PickFn chooses among competing requests. reqs[i] is the datum offered on
// input connection i (nil when input i has nothing this cycle); last is
// the most recently granted input (-1 initially). It returns the indices
// to grant, in priority order; out-of-range or nil-request indices are
// ignored.
type PickFn func(reqs []any, last int) []int

// Arbiter grants up to out-width competing inputs per cycle and forwards
// their data, nacking the losers. It is the same component whether it
// regulates access to a network link, a synchronization lock or a shared
// functional unit. Policies: "roundrobin" (default), "fixed" (lowest
// connection wins), "lru"-equivalent via roundrobin, or a custom PickFn.
type Arbiter struct {
	core.Base
	In  *core.Port
	Out *core.Port

	pick PickFn
	last int
	// grants[j] is the input granted on out conn j this cycle. Scratch of
	// the reactive handler, valid only while out lane 0 reads Yes. Out lane
	// 0 reading Yes proves the decision was made this cycle and granted
	// something (only this handler drives Out data, and default control
	// never resolves data to Yes), so a re-react then skips the rescan of
	// the requests. Anything else means no grant this cycle — every cycle,
	// also the one after a Step that aborted mid-cycle, starts with lane 0
	// Unknown, a decision that grants nothing idles it, and a default
	// round may set it No while the requests are still unsettled — so once
	// the requests settle the handler empties grants before it mirrors a
	// single ack.
	grants []int

	// scratch buffers reused across reactive invocations
	reqs     []any
	orderBuf []int // scratch for the built-in policies

	cGrant  *core.Counter
	cDenied *core.Counter
}

// NewArbiter constructs an arbiter. Parameters:
//
//	policy (string, default "roundrobin") — "roundrobin" or "fixed"
//	pick   (PickFn, optional)             — custom policy; overrides policy
func NewArbiter(name string, p core.Params) (*Arbiter, error) {
	a := &Arbiter{last: -1}
	a.pick = core.Fn[PickFn](p, "pick", nil)
	if a.pick == nil {
		switch policy := p.Str("policy", "roundrobin"); policy {
		case "roundrobin":
			a.pick = a.pickRoundRobin
		case "fixed":
			a.pick = a.pickFixed
		default:
			return nil, &core.ParamError{Param: "policy", Detail: fmt.Sprintf("unknown policy %q", policy)}
		}
	}
	a.Init(name, a)
	a.Checkpoint(&a.last)
	a.cGrant = a.Counter("grants")
	a.cDenied = a.Counter("denials")
	// Both ports tolerate being left unconnected (partial specification):
	// with no outputs the arbiter refuses all requests; with no inputs it
	// offers nothing.
	a.In = a.AddInPort("in", core.PortOpts{DefaultAck: core.No})
	a.Out = a.AddOutPort("out")
	a.OnReact(a.react)
	a.OnCycleEnd(a.cycleEnd)
	return a, nil
}

// granted0 reports whether input i already holds a grant.
func granted0(grants []int, i int) bool {
	for _, g := range grants {
		if g == i {
			return true
		}
	}
	return false
}

func (a *Arbiter) pickFixed(reqs []any, last int) []int {
	out := a.orderBuf[:0]
	for i, r := range reqs {
		if r != nil {
			out = append(out, i)
		}
	}
	a.orderBuf = out
	return out
}

func (a *Arbiter) pickRoundRobin(reqs []any, last int) []int {
	n := len(reqs)
	out := a.orderBuf[:0]
	for k := 1; k <= n; k++ {
		i := (last + k) % n
		if reqs[i] != nil {
			out = append(out, i)
		}
	}
	a.orderBuf = out
	return out
}

func (a *Arbiter) react() {
	if a.Out.Width() == 0 {
		a.In.NackRest()
		return
	}
	n := a.In.Width()
	if a.Out.DataStatus(0) != core.Yes {
		// The decision needs every request known; until then, stay quiet
		// (monotonicity forbids changing a published grant).
		reqs, settled := a.In.Offers(a.reqs)
		a.reqs = reqs
		if !settled {
			return
		}
		a.grants = a.grants[:0]
		if a.Out.DataStatus(0) == core.Unknown {
			order := a.pick(reqs, a.last)
			for _, i := range order {
				if i < 0 || i >= n || reqs[i] == nil || granted0(a.grants, i) {
					continue
				}
				if len(a.grants) == a.Out.Width() {
					break
				}
				j := len(a.grants)
				a.grants = append(a.grants, i)
				a.Out.Send(j, reqs[i])
				a.Out.Enable(j)
			}
			a.Out.IdleLanes(len(a.grants), a.Out.Width())
		}
	}
	// Mirror downstream acks back to the granted inputs and nack the rest,
	// in ascending input order: each pass nacks up to the next granted
	// input (grants are few — at most the out width).
	for lo := 0; lo < n; {
		i, j := n, -1
		for gj, gi := range a.grants {
			if gi >= lo && gi < i {
				i, j = gi, gj
			}
		}
		a.In.NackLanes(lo, i)
		lo = i + 1
		if j < 0 || a.In.AckStatus(i).Known() {
			continue
		}
		switch a.Out.AckStatus(j) {
		case core.Yes:
			a.In.Ack(i)
		case core.No:
			a.In.Nack(i)
		}
	}
}

func (a *Arbiter) cycleEnd() {
	for j, i := range a.grants {
		if a.Out.Transferred(j) {
			a.cGrant.Inc()
			a.last = i
		}
	}
	offered := false
	for i := a.In.NextOffered(0); i >= 0; i = a.In.NextOffered(i + 1) {
		offered = true
		if !a.In.Transferred(i) {
			a.cDenied.Inc()
		}
	}
	// With nothing offered, the end handler has nothing to count until
	// something is.
	if !offered {
		a.Sleep()
	}
}

func init() {
	core.Register(&core.Template{
		Name: "pcl.arbiter",
		Doc:  "grants up to out-width of the competing inputs per cycle",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewArbiter(name, p)
		},
	})
}
