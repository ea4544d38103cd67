package core

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
)

// Instance is a module instance in a netlist. Concrete modules obtain the
// interface by embedding Base; the unexported method pins the
// implementation to this package's lifecycle management.
type Instance interface {
	// Name returns the instance's hierarchical name, unique in its netlist.
	Name() string
	base() *Base
}

// Base carries the per-instance engine state every module embeds. A module
// must call Init (usually via Builder-registered constructors) before
// declaring ports or handlers.
type Base struct {
	name       string
	self       Instance
	sim        *Sim
	id         int
	portList   []*Port        // declaration order, composite exports included
	portNames  []string       // portList[i]'s name here (an export's alias)
	portIdx    map[string]int // portNames' index, built past 16 ports (bindPort)
	react      func()
	start      func()
	end        func()
	sequential bool       // no same-cycle path between ports: a dependency-graph node per port
	scheduled  bool       // queued for react
	declared   bool       // Checkpoint was called; state holds its fields, if any
	rs         rngState   // the instance's random stream: the word Snapshot saves
	rng        *rand.Rand // draws from rs
	pos        Pos        // spec position the instance was declared at, if known
	state      []any      // the field pointers Checkpoint declared
}

// Init names the instance and records its concrete value. It must be
// called exactly once, before any other Base method.
func (b *Base) Init(name string, self Instance) {
	if b.self != nil {
		contractPanic("init", name, "instance initialized twice")
	}
	if name == "" {
		contractPanic("init", "?", "instance name must be non-empty")
	}
	b.name = name
	b.self = self
}

// Name returns the instance's hierarchical name.
func (b *Base) Name() string { return b.name }

func (b *Base) base() *Base { return b }

func (b *Base) addPort(name string, dir Dir, opts PortOpts) *Port {
	if b.self == nil {
		contractPanic("add port", name, "Base.Init not called")
	}
	if opts.DefaultAck != Unknown && dir != In {
		contractPanic("add port", b.name+"."+name, "DefaultAck applies to In ports only")
	}
	if opts.DefaultEnable != Unknown && dir != Out {
		contractPanic("add port", b.name+"."+name, "DefaultEnable applies to Out ports only")
	}
	p := &Port{name: name, dir: dir, owner: b, opts: opts}
	b.bindPort("add port", name, p)
	return p
}

func (b *Base) bindPort(op, name string, p *Port) {
	const scanMax = 16 // PortByName scans up to this many names; past it, they are indexed
	if b.PortByName(name) != nil {
		contractPanic(op, b.name+"."+name, "duplicate port name")
	}
	b.portList, b.portNames = append(b.portList, p), append(b.portNames, name)
	if len(b.portNames) == scanMax+1 {
		b.portIdx = make(map[string]int, 2*len(b.portNames))
		for i, n := range b.portNames {
			b.portIdx[n] = i
		}
	} else if b.portIdx != nil {
		b.portIdx[name] = len(b.portNames) - 1
	}
}

// AddInPort declares an input port.
func (b *Base) AddInPort(name string, opts ...PortOpts) *Port {
	return b.addPort(name, In, optOf(opts))
}

// AddOutPort declares an output port.
func (b *Base) AddOutPort(name string, opts ...PortOpts) *Port {
	return b.addPort(name, Out, optOf(opts))
}

func optOf(opts []PortOpts) PortOpts {
	if len(opts) > 1 {
		contractPanic("add port", "?", "at most one PortOpts allowed")
	}
	if len(opts) == 1 {
		return opts[0]
	}
	return PortOpts{}
}

// PortByName returns the named port, or nil when the instance has none.
func (b *Base) PortByName(name string) *Port {
	if i, ok := b.portIdx[name]; ok {
		return b.portList[i]
	}
	for i := 0; b.portIdx == nil && i < len(b.portNames); i++ {
		if b.portNames[i] == name {
			return b.portList[i]
		}
	}
	return nil
}

// Ports returns the instance's ports in declaration order.
func (b *Base) Ports() []*Port { return b.portList }

// OnReact registers the reactive handler. It may run many times per cycle
// and must be idempotent and monotonic (see package documentation).
func (b *Base) OnReact(fn func()) { b.react = fn }

// OnCycleStart registers the once-per-cycle pre-resolution handler.
func (b *Base) OnCycleStart(fn func()) { b.start = fn }

// OnCycleEnd registers the once-per-cycle post-resolution commit handler.
func (b *Base) OnCycleEnd(fn func()) { b.end = fn }

// MarkSequential declares that no signal the instance drives on one port
// depends, within a cycle, on a signal it observes on another port: what
// it drives on an Out port is a function of its state at cycle start, and
// what it acks on an In port a function of that port's own lanes and
// state. Queues, delay lines and links are the type, and so is any
// controller that offers from its queues at cycle start and acks each
// input from its own lanes (the directory and snoop controllers, the
// trace core). The dependency graph
// (graph.go) gives a marked instance a node per port, so the static sweep
// orders defaults across it, LSE002 sees no cycle through it, and the
// combinational clusters are cut there: one busy side of a buffer does
// not keep the other side's cluster open. The mark is a promise about the
// handlers: vetlse's sequential pass checks it statically (react calls
// nothing on an Out port, the start handler reads no port), and
// WithActivityCheck and the differential against the reference hold it
// to account at run time (DESIGN.md Appendix C.2).
func (b *Base) MarkSequential() { b.sequential = true }

// SourcePos returns the specification position the instance was declared
// at, when the netlist came from a spec front end (see Builder.At); the
// zero Pos otherwise.
func (b *Base) SourcePos() Pos { return b.pos }

// HasHandlers reports which lifecycle handlers the instance registered.
// Analysis passes use it to find modules that receive data but can never
// observe it.
func (b *Base) HasHandlers() (react, start, end bool) {
	return b.react != nil, b.start != nil, b.end != nil
}

// Sim returns the simulator the instance belongs to (nil before Build).
func (b *Base) Sim() *Sim { return b.sim }

// Now returns the current cycle number.
func (b *Base) Now() uint64 { return b.sim.cycle }

// Rand returns the instance's deterministic random source, seeded from
// the simulator seed and the instance name so runs are reproducible and
// independent of netlist assembly order. The stream's whole position is
// one word of state, which a snapshot saves and a restore sets as it is.
func (b *Base) Rand() *rand.Rand { return b.rng }

// rngState is a splitmix64 generator: a math/rand/v2 Source whose state
// is the word itself.
type rngState uint64

func (r *rngState) Uint64() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Counter registers (or retrieves) a statistics counter scoped to this
// instance. Increment counters only from OnCycleStart or OnCycleEnd;
// reactive handlers may run multiple times per cycle.
func (b *Base) Counter(name string) *Counter {
	return b.sim.stats.counter(b.name + "." + name)
}

// Histogram registers (or retrieves) a statistics histogram scoped to
// this instance.
func (b *Base) Histogram(name string) *Histogram {
	return b.sim.stats.histogram(b.name + "." + name)
}

func (b *Base) attach(s *Sim, id int) {
	b.sim = s
	b.id = id
	h := fnv.New64a()
	h.Write([]byte(b.name))
	b.rs = rngState(uint64(s.seed) ^ h.Sum64())
	b.rng = rand.New(&b.rs)
}

// Composite is a hierarchical instance assembled from sub-instances of
// existing templates, the paper's mechanism for building new module
// templates out of old ones. Selected sub-instance ports are exported
// under the composite's own port names; connections made to the composite
// attach directly to the underlying child ports (the netlist flattens).
type Composite struct {
	Base
	children []Instance
}

// AddChild records a sub-instance for enumeration and documentation; the
// Builder has already added it to the netlist.
func (c *Composite) AddChild(inst Instance) { c.children = append(c.children, inst) }

// Children returns the composite's sub-instances.
func (c *Composite) Children() []Instance { return c.children }

// Export publishes a child's port under the given name on the composite.
func (c *Composite) Export(name string, p *Port) {
	if p == nil {
		contractPanic("export", c.name+"."+name, "nil port")
	}
	c.bindPort("export", name, p)
}

// ExportNames returns the names the composite published child ports
// under, sorted. Pair with PortByName to recover the aliased ports.
func (c *Composite) ExportNames() []string {
	names := append([]string(nil), c.portNames...)
	sort.Strings(names)
	return names
}

// PortOf returns the named port of an instance, following composite
// exports (which alias child ports directly) — the lookup Builder.Connect
// and tooling (e.g. the LSS elaborator) use to wire instances.
func PortOf(inst Instance, name string) (*Port, error) {
	p := inst.base().PortByName(name)
	if p == nil {
		have := append([]string(nil), inst.base().portNames...)
		sort.Strings(have)
		return nil, &BuildError{Op: "resolve port", Where: inst.Name() + "." + name,
			Detail: fmt.Sprintf("no such port; instance has %v", have)}
	}
	return p, nil
}
