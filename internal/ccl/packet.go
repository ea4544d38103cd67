package ccl

import (
	"errors"
	"fmt"
	"math/rand"

	"liberty/internal/pcl"
)

// Packet is the unit of transfer in CCL networks. Size is in flits and
// determines link serialization time. Packets implement pcl.Stamped so
// any pcl.Sink measures end-to-end latency for free.
type Packet struct {
	ID       uint64
	Src, Dst int
	Size     int    // flits
	Injected uint64 // cycle the packet entered the network
	Hops     int    // incremented by each router traversal
	Payload  any
}

// InjectedAt implements pcl.Stamped.
func (p *Packet) InjectedAt() uint64 { return p.Injected }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d (%df)", p.ID, p.Src, p.Dst, p.Size)
}

// PatternFn chooses a destination for a packet from src among n nodes.
// Returning src is allowed; the generator re-rolls self-addressed traffic
// for patterns where that is meaningless.
type PatternFn func(rng *rand.Rand, src, n int) int

// UniformPattern spreads traffic uniformly over all other nodes.
func UniformPattern(rng *rand.Rand, src, n int) int {
	if n < 2 {
		return src
	}
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// TransposePattern sends node (x,y) to (y,x) on a w×w mesh (n must be a
// perfect square).
func TransposePattern(w int) PatternFn {
	return func(rng *rand.Rand, src, n int) int {
		x, y := src%w, src/w
		return x*w + y
	}
}

// BitComplementPattern sends node i to n-1-i.
func BitComplementPattern(rng *rand.Rand, src, n int) int { return n - 1 - src }

// HotspotPattern sends traffic to the hotspot node with probability p and
// uniformly otherwise.
func HotspotPattern(hotspot int, p float64) PatternFn {
	return func(rng *rand.Rand, src, n int) int {
		if src != hotspot && rng.Float64() < p {
			return hotspot
		}
		return UniformPattern(rng, src, n)
	}
}

// NeighborPattern sends to the next node in ring order (nearest-neighbor
// traffic).
func NeighborPattern(rng *rand.Rand, src, n int) int { return (src + 1) % n }

// patternParams are what the named patterns read beyond the node count:
// the hot node and its share of the traffic for "hotspot", the one
// destination for "fixed".
type patternParams struct {
	hotspot int
	hotprob float64
	dst     int
}

// patternByName returns the named traffic pattern over nodes nodes. It is
// the one parser behind the ccl.pktsource template's pattern parameter and
// SweepCfg.Pattern; each caller supplies its own patternParams.
func patternByName(name string, nodes int, pp patternParams) (PatternFn, error) {
	switch name {
	case "uniform":
		return UniformPattern, nil
	case "transpose":
		w := 1
		for w*w < nodes {
			w++
		}
		if w*w != nodes {
			return nil, errors.New("transpose needs a square node count")
		}
		return TransposePattern(w), nil
	case "complement":
		return BitComplementPattern, nil
	case "hotspot":
		return HotspotPattern(pp.hotspot, pp.hotprob), nil
	case "neighbor":
		return NeighborPattern, nil
	case "fixed":
		dst := pp.dst
		return func(*rand.Rand, int, int) int { return dst }, nil
	}
	return nil, fmt.Errorf("unknown pattern %q", name)
}

// SizeFn chooses a packet's size in flits.
type SizeFn func(rng *rand.Rand) int

// FixedSize returns a constant packet size.
func FixedSize(flits int) SizeFn { return func(*rand.Rand) int { return flits } }

// BimodalSize returns short control packets with probability pShort and
// long data packets otherwise, the classic NoC workload mix.
func BimodalSize(short, long int, pShort float64) SizeFn {
	return func(rng *rand.Rand) int {
		if rng.Float64() < pShort {
			return short
		}
		return long
	}
}

// PacketGen adapts a traffic pattern into a pcl.Source generator for node
// src of an n-node network.
func PacketGen(src, n int, pattern PatternFn, size SizeFn) pcl.GenFn {
	if size == nil {
		size = FixedSize(4)
	}
	return func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
		dst := pattern(rng, src, n)
		// Re-roll self-addressed traffic a few times; deterministic
		// patterns that map a node to itself (transpose diagonal) fall
		// back to the ring neighbor.
		for try := 0; dst == src && n > 1; try++ {
			if try >= 4 {
				dst = (src + 1) % n
				break
			}
			dst = pattern(rng, src, n)
		}
		return &Packet{
			ID:       uint64(src)<<40 | seq,
			Src:      src,
			Dst:      dst,
			Size:     size(rng),
			Injected: cycle,
		}, true
	}
}

// TraceGen replays a fixed list of packets (trace-driven workloads);
// Injected is stamped at actual injection time.
func TraceGen(packets []*Packet) pcl.GenFn {
	return func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
		if int(seq) >= len(packets) {
			return nil, false
		}
		p := *packets[seq] // copy so replays do not alias
		p.Injected = cycle
		return &p, true
	}
}

// BurstyPattern wraps another pattern with on/off (Markov-modulated)
// gating state held in the generator below; it only chooses destinations.
// Burstiness itself is produced by BurstyGen.
//
// BurstyGen adapts a pattern into a pcl.GenFn whose injection process is
// a two-state Markov chain: in the ON state a packet is produced every
// call, in the OFF state none; the chain flips with the given
// probabilities. Mean offered load = rate at the pcl.Source times the ON
// duty cycle pOn/(pOn+pOff).
func BurstyGen(src, n int, pattern PatternFn, size SizeFn, pOn, pOff float64) func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
	if size == nil {
		size = FixedSize(4)
	}
	on := false
	base := PacketGen(src, n, pattern, size)
	return func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
		if on {
			if rng.Float64() < pOff {
				on = false
			}
		} else if rng.Float64() < pOn {
			on = true
		}
		if !on {
			return nil, true // stay alive, produce nothing this call
		}
		return base(rng, cycle, seq)
	}
}
