package pcl

import (
	"math/rand/v2"

	core "liberty/internal/core"
)

// GenFn produces the next datum a Source offers. Returning ok=false means
// the source is exhausted; returning (nil, true) means "nothing this
// cycle, try again later" (bursty/idle generators). It runs at most once
// per item: a back-pressured item is retried without regenerating. rng
// is the source's own stream (core.Base.Rand), one word of state that a
// snapshot saves; a generator that draws only from it restores exactly.
type GenFn func(rng *rand.Rand, cycle uint64, seq uint64) (v any, ok bool)

// Source injects generated data, one offer per out connection per cycle,
// gated by an injection rate. With the default generator it emits its
// sequence number; statistical traffic models supply their own GenFn —
// the "statistical packet generator" of the paper's mixed-abstraction
// example is exactly this template with a CCL packet generator plugged in.
type Source struct {
	core.Base
	Out *core.Port

	rate  float64
	count uint64 // 0 = unlimited
	gen   GenFn

	pending []any // pending item per out conn (nil = empty)

	seq  uint64
	done bool

	cInjected *core.Counter
	cBlocked  *core.Counter
}

// NewSource constructs a source. Parameters:
//
//	rate  (float, default 1.0) — per-connection injection probability
//	count (int, default 0)     — stop after this many items (0 = endless)
//	gen   (GenFn, optional)    — item generator
func NewSource(name string, p core.Params) (*Source, error) {
	s := &Source{
		rate:  p.Float("rate", 1.0),
		count: uint64(p.Int("count", 0)),
		gen:   core.Fn[GenFn](p, "gen", nil),
	}
	if s.rate < 0 || s.rate > 1 {
		return nil, &core.ParamError{Param: "rate", Detail: "must be in [0,1]"}
	}
	if s.gen == nil {
		s.gen = func(rng *rand.Rand, cycle, seq uint64) (any, bool) { return int(seq), true }
	}
	s.Init(name, s)
	s.Checkpoint(&s.rate, &s.pending, &s.seq, &s.done) // rate too: SetRate may change it after construction
	s.Out = s.AddOutPort("out", core.PortOpts{MinWidth: 1})
	s.OnCycleStart(s.cycleStart)
	s.OnCycleEnd(s.cycleEnd)
	return s, nil
}

// SetRate changes the per-connection injection probability. Values are
// clamped to [0,1]. It exists so one compiled core.Program can stamp a
// parameter sweep: each stamped Sim adjusts its sources before running
// instead of recompiling the netlist per sweep point. Call it only
// between cycles (before Run/Step), never from inside a handler.
func (s *Source) SetRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s.rate = rate
}

// Injected returns how many items have been successfully injected.
func (s *Source) Injected() uint64 {
	if s.cInjected == nil {
		return 0
	}
	return uint64(s.cInjected.Value())
}

// Exhausted reports whether the generator has finished and all pending
// items have drained.
func (s *Source) Exhausted() bool {
	if !s.done {
		return false
	}
	for _, v := range s.pending {
		if v != nil {
			return false
		}
	}
	return true
}

func (s *Source) cycleStart() {
	if s.cInjected == nil {
		s.cInjected = s.Counter("injected")
		s.cBlocked = s.Counter("blocked")
	}
	for len(s.pending) < s.Out.Width() {
		s.pending = append(s.pending, nil)
	}
	idle := 0 // lanes below i not yet resolved: idled in one run, in lane order
	for i := 0; i < s.Out.Width(); i++ {
		if s.pending[i] == nil && !s.done {
			if s.count > 0 && s.seq >= s.count {
				s.done = true
			} else if s.rate >= 1 || s.Rand().Float64() < s.rate {
				v, ok := s.gen(s.Rand(), s.Now(), s.seq)
				switch {
				case !ok:
					s.done = true
				case v != nil:
					s.pending[i] = v
					s.seq++
				}
			}
		}
		if s.pending[i] != nil {
			s.Out.IdleLanes(idle, i)
			idle = i + 1
			s.Out.Send(i, s.pending[i])
			s.Out.Enable(i)
		}
	}
	s.Out.IdleLanes(idle, s.Out.Width())
}

func (s *Source) cycleEnd() {
	for i := 0; i < s.Out.Width(); i++ {
		if s.pending[i] == nil {
			continue
		}
		if s.Out.Transferred(i) {
			s.pending[i] = nil
			s.cInjected.Inc()
		} else {
			s.cBlocked.Inc()
		}
	}
}

func init() {
	core.Register(&core.Template{
		Name: "pcl.source",
		Doc:  "rate-gated generated-data injector",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewSource(name, p)
		},
	})
}
