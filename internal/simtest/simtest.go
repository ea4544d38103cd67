// Package simtest provides small scripted modules and helpers shared by
// the component-library test suites: a Producer that offers a fixed list
// of values, and a Consumer with a programmable acceptance pattern.
package simtest

import (
	"fmt"
	"hash/crc64"
	"testing"

	core "liberty/internal/core"
)

// Producer offers the supplied items in order on its "out" port (width 1),
// retrying each until accepted.
type Producer struct {
	core.Base
	Out *core.Port

	items []any
	pos   int
	// Gate, when non-nil, withholds the offer on cycles where it returns
	// false.
	Gate func(cycle uint64) bool
}

// NewProducer constructs a producer offering items in order.
func NewProducer(name string, items []any) *Producer {
	p := &Producer{items: items}
	p.Init(name, p)
	p.Out = p.AddOutPort("out", core.PortOpts{MinWidth: 1, MaxWidth: 1})
	p.OnCycleStart(p.cycleStart)
	p.OnCycleEnd(p.cycleEnd)
	return p
}

// Done reports whether every item has been accepted.
func (p *Producer) Done() bool { return p.pos >= len(p.items) }

// Sent returns how many items have been accepted so far.
func (p *Producer) Sent() int { return p.pos }

func (p *Producer) cycleStart() {
	if p.pos < len(p.items) && (p.Gate == nil || p.Gate(p.Now())) {
		p.Out.Send(0, p.items[p.pos])
		p.Out.Enable(0)
	} else {
		p.Out.SendNothing(0)
		p.Out.Disable(0)
	}
}

func (p *Producer) cycleEnd() {
	if p.Out.Transferred(0) {
		p.pos++
	}
}

// Consumer accepts offered data according to Accept (nil accepts always)
// and records what it received and when.
type Consumer struct {
	core.Base
	In *core.Port

	// Accept decides whether to take the datum offered this cycle.
	Accept func(cycle uint64, v any) bool

	Got    []any
	GotAt  []uint64
	nacked int64
}

// NewConsumer constructs a consumer with the given acceptance predicate
// (nil = accept everything).
func NewConsumer(name string, accept func(cycle uint64, v any) bool) *Consumer {
	c := &Consumer{Accept: accept}
	c.Init(name, c)
	c.In = c.AddInPort("in")
	c.OnReact(c.react)
	c.OnCycleEnd(c.cycleEnd)
	return c
}

func (c *Consumer) react() {
	for i := 0; i < c.In.Width(); i++ {
		if c.In.AckStatus(i).Known() {
			continue
		}
		switch c.In.DataStatus(i) {
		case core.Yes:
			if c.Accept == nil || c.Accept(c.Now(), c.In.Data(i)) {
				c.In.Ack(i)
			} else {
				c.In.Nack(i)
			}
		case core.No:
			c.In.Nack(i)
		}
	}
}

func (c *Consumer) cycleEnd() {
	for i := 0; i < c.In.Width(); i++ {
		if v, ok := c.In.TransferredData(i); ok {
			c.Got = append(c.Got, v)
			c.GotAt = append(c.GotAt, c.Now())
		} else if c.In.DataStatus(i) == core.Yes {
			c.nacked++
		}
	}
}

// Nacked returns how many offers the consumer refused.
func (c *Consumer) Nacked() int64 { return c.nacked }

// Ints converts the received values to ints, failing the test on any
// non-int.
func (c *Consumer) Ints(t *testing.T) []int {
	t.Helper()
	out := make([]int, len(c.Got))
	for i, v := range c.Got {
		n, ok := v.(int)
		if !ok {
			t.Fatalf("received %T (%v), want int", v, v)
		}
		out[i] = n
	}
	return out
}

// Build finalizes a builder, failing the test on error.
func Build(t testing.TB, b *core.Builder) *core.Sim {
	t.Helper()
	sim, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sim
}

// Run advances the simulator n cycles, failing the test on error.
func Run(t testing.TB, s *core.Sim, n uint64) {
	t.Helper()
	if err := s.Run(n); err != nil {
		t.Fatalf("Run(%d): %v", n, err)
	}
}

// Name composes an indexed instance name.
func Name(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }

// IntSeq returns []any{0, 1, …, n-1}.
func IntSeq(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// EqualInts compares int slices, failing the test with context on
// mismatch.
func EqualInts(t *testing.T, got, want []int, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", label, got, want)
		}
	}
}

// StatusHash fingerprints the statuses of every connection, in id order.
func StatusHash(s *core.Sim) uint64 { return fingerprint(s, false) }

// StepHashes steps s n cycles and returns the StatusHash after each.
func StepHashes(t *testing.T, s *core.Sim, n int) []uint64 {
	t.Helper()
	out := make([]uint64, n)
	for i := range out {
		Run(t, s, 1)
		out[i] = StatusHash(s)
	}
	return out
}

// CycleHasher is a tracer that fingerprints the statuses and data values
// of every connection at each cycle's end. A tracer keeps every cluster
// open; a run that lets clusters close is compared by StatusHash.
type CycleHasher struct {
	Hashes []uint64
	sim    *core.Sim
}

func (h *CycleHasher) Attach(s *core.Sim)                              { h.sim = s }
func (h *CycleHasher) OnCycleBegin(uint64)                             {}
func (h *CycleHasher) OnResolve(*core.Conn, core.SigKind, core.Status) {}
func (h *CycleHasher) OnCycleEnd(uint64)                               { h.Hashes = append(h.Hashes, fingerprint(h.sim, true)) }

func fingerprint(s *core.Sim, data bool) uint64 {
	buf := make([]byte, 0, 4*len(s.Conns()))
	for _, c := range s.Conns() {
		buf = append(buf, byte(c.Status(core.SigData)), byte(c.Status(core.SigEnable)), byte(c.Status(core.SigAck)))
		if v, ok := c.Data(); ok && data {
			buf = fmt.Appendf(buf, "%v;", v)
		}
	}
	return crc64.Checksum(buf, crc64.MakeTable(crc64.ECMA))
}
