package pcl

import (
	"fmt"

	core "liberty/internal/core"
)

// MemOp distinguishes memory array operations.
type MemOp uint8

const (
	// MemRead requests the word at Addr.
	MemRead MemOp = iota
	// MemWrite stores Data at Addr.
	MemWrite
)

func (o MemOp) String() string {
	if o == MemRead {
		return "read"
	}
	return "write"
}

// MemReq is the request message understood by MemArray (and by the cache
// and coherence models built on top of it). Tag is carried through to the
// response unchanged so requesters can match replies.
type MemReq struct {
	Op   MemOp
	Addr uint32
	Data uint32
	Tag  any
}

// MemResp is MemArray's reply.
type MemResp struct {
	Addr uint32
	Data uint32
	Tag  any
}

// MemArray is a multi-ported memory with a fixed access latency: the
// primitive behind register files, cache data arrays, bus queuing buffers
// and scratchpads. Request connection i replies on response connection i.
//
// Ports:
//
//	req  (In)  — MemReq per connection
//	resp (Out) — MemResp, latency cycles after acceptance
type MemArray struct {
	core.Base
	Req  *core.Port
	Resp *core.Port

	words    []uint32
	latency  int
	pending  [][]delayEntry
	maxQueue int

	cReads  *core.Counter
	cWrites *core.Counter
}

// NewMemArray constructs a memory array. Parameters:
//
//	words   (int, default 1024) — array size in 32-bit words
//	latency (int, default 1)    — access latency in cycles
//	queue   (int, default 4)    — outstanding accesses per port
func NewMemArray(name string, p core.Params) (*MemArray, error) {
	m := &MemArray{
		words:    make([]uint32, p.Int("words", 1024)),
		latency:  p.Int("latency", 1),
		maxQueue: p.Int("queue", 4),
	}
	if len(m.words) < 1 {
		return nil, &core.ParamError{Param: "words", Detail: "must be >= 1"}
	}
	if m.latency < 1 {
		return nil, &core.ParamError{Param: "latency", Detail: "must be >= 1"}
	}
	m.Init(name, m)
	m.Checkpoint(&m.words, &m.pending)
	m.cReads = m.Counter("reads")
	m.cWrites = m.Counter("writes")
	m.Req = m.AddInPort("req", core.PortOpts{DefaultAck: core.No})
	m.Resp = m.AddOutPort("resp")
	m.OnCycleStart(m.cycleStart)
	m.OnReact(m.react)
	m.OnCycleEnd(m.cycleEnd)
	m.MarkSequential() // resp is offered from the pending replies at cycle start; req is acked from req's own lanes and the per-port queues
	return m, nil
}

// Peek returns the stored word at word-index idx (test/debug access).
func (m *MemArray) Peek(idx uint32) uint32 { return m.words[idx%uint32(len(m.words))] }

// Poke stores v at word-index idx (test/preload access).
func (m *MemArray) Poke(idx uint32, v uint32) { m.words[idx%uint32(len(m.words))] = v }

func (m *MemArray) port(i int) []delayEntry {
	for len(m.pending) <= i {
		m.pending = append(m.pending, nil)
	}
	return m.pending[i]
}

func (m *MemArray) cycleStart() {
	now := m.Now()
	idle := 0 // lanes below i not yet resolved: idled in one run, in lane order
	for i := 0; i < m.Resp.Width(); i++ {
		if q := m.port(i); len(q) > 0 && now >= q[0].Ready {
			m.Resp.IdleLanes(idle, i)
			idle = i + 1
			m.Resp.Send(i, q[0].V)
			m.Resp.Enable(i)
		}
	}
	m.Resp.IdleLanes(idle, m.Resp.Width())
}

func (m *MemArray) react() {
	for i := 0; i < m.Req.Width(); i++ {
		if m.Req.AckStatus(i).Known() {
			continue
		}
		switch m.Req.DataStatus(i) {
		case core.Yes:
			if len(m.port(i)) < m.maxQueue {
				m.Req.Ack(i)
			} else {
				m.Req.Nack(i)
			}
		case core.No:
			m.Req.Nack(i)
		}
	}
}

func (m *MemArray) cycleEnd() {
	for i := m.Resp.NextTransferred(0); i >= 0; i = m.Resp.NextTransferred(i + 1) {
		m.pending[i] = m.pending[i][1:]
	}
	for i := m.Req.NextTransferred(0); i >= 0; i = m.Req.NextTransferred(i + 1) {
		v := m.Req.Data(i)
		req, ok := v.(MemReq)
		if !ok {
			panic(&core.ContractError{Op: "memarray request", Where: m.Name(),
				Detail: fmt.Sprintf("expected pcl.MemReq, got %T", v)})
		}
		idx := (req.Addr / 4) % uint32(len(m.words))
		resp := MemResp{Addr: req.Addr, Tag: req.Tag}
		switch req.Op {
		case MemRead:
			resp.Data = m.words[idx]
			m.cReads.Inc()
		case MemWrite:
			m.words[idx] = req.Data
			resp.Data = req.Data
			m.cWrites.Inc()
		}
		m.pending[i] = append(m.port(i), delayEntry{V: resp, Ready: m.Now() + uint64(m.latency)})
	}
}

func init() {
	core.Register(&core.Template{
		Name: "pcl.memarray",
		Doc:  "multi-ported latency-accurate memory array",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewMemArray(name, p)
		},
	})
}
