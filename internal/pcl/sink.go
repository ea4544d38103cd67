package pcl

import (
	core "liberty/internal/core"
)

// Stamped is implemented by messages that record their injection cycle;
// Sink uses it to measure end-to-end latency (CCL packets implement it).
type Stamped interface {
	InjectedAt() uint64
}

// Sink consumes and counts everything offered to it, optionally keeping
// the received values and recording delivery latency for Stamped data.
type Sink struct {
	core.Base
	In *core.Port

	keep     bool
	accept   bool
	received []any

	cReceived *core.Counter
	hLatency  *core.Histogram
}

// NewSink constructs a sink. Parameters:
//
//	keep   (bool, default false) — retain received values for inspection
//	accept (bool, default true)  — false refuses everything (DefaultAck=No),
//	                               modeling a detached or saturated consumer
func NewSink(name string, p core.Params) (*Sink, error) {
	s := &Sink{keep: p.Bool("keep", false), accept: p.Bool("accept", true)}
	s.Init(name, s)
	s.Checkpoint(&s.received)
	s.cReceived = s.Counter("received")
	s.hLatency = s.Histogram("latency")
	// Default control accepts everything — unless accept=false pins the
	// ack to No.
	var opts core.PortOpts
	if !s.accept {
		opts.DefaultAck = core.No
	}
	s.In = s.AddInPort("in", opts)
	s.OnCycleEnd(s.cycleEnd)
	return s, nil
}

// Received returns the number of values consumed.
func (s *Sink) Received() int64 {
	return s.cReceived.Value()
}

// Values returns the retained values (only when keep=true).
func (s *Sink) Values() []any { return s.received }

// MeanLatency returns the average delivery latency of Stamped values.
func (s *Sink) MeanLatency() float64 {
	return s.hLatency.Mean()
}

func (s *Sink) cycleEnd() {
	if s.In.NextTransferred(0) < 0 {
		s.Sleep() // nothing to count until something arrives
		return
	}
	for i := s.In.NextTransferred(0); i >= 0; i = s.In.NextTransferred(i + 1) {
		s.cReceived.Inc()
		v := s.In.Data(i)
		if st, ok := v.(Stamped); ok {
			s.hLatency.Observe(float64(s.Now() - st.InjectedAt()))
		}
		if s.keep {
			s.received = append(s.received, v)
		}
	}
}

func init() {
	core.Register(&core.Template{
		Name: "pcl.sink",
		Doc:  "consumes, counts and latency-profiles incoming data",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewSink(name, p)
		},
	})
}
