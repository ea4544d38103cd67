package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile picks, from the usual ladder, the highest percentile that
// still has at least ten samples beyond it — the tail a sample of this
// size can support. It returns 50 when no higher rung qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, rung := range []struct {
		p      float64
		beyond int // per mille of the samples above p
	}{{90, 100}, {95, 50}, {99, 10}, {99.9, 1}} {
		if n*rung.beyond >= 10*1000 {
			best = rung.p
		}
	}
	return best
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// spread is the distance between the first and third quartile as a share
// of the median — the run-to-run spread the bounds are judged against.
// Quartiles follow Python's statistics.quantiles(n=4) (exclusive method),
// which is what the driver computes. Fewer than two samples have no spread.
func spread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// statsDoc is the part of the obs statistics JSON the benchmark reads. It
// is decoded from the bytes obs.WriteJSON or GET .../observe produced, so
// the in-process and the wire path are digested by the same code, and the
// benchmark keeps compiling when obs or core rename a Go field.
type statsDoc struct {
	Cycles     uint64           `json:"cycles"`
	Conns      int              `json:"conns"`
	SpillHits  uint64           `json:"spill_hits"`
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
	Schedule  map[string]any `json:"schedule"`
	Scheduler map[string]any `json:"scheduler"`
	Hot       []struct {
		Name        string `json:"name"`
		ReactTimeNs int64  `json:"react_time_ns"`
	} `json:"hot"`
}

func parseStats(raw []byte) (*statsDoc, error) {
	var d statsDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// digest is FNV-64a over the cycle count and the sorted counter values and
// histogram count/sum: the modelled design's observable outcome. Map
// iteration order cannot reach it.
func (d *statsDoc) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(d.Cycles)
	for _, n := range sortedKeys(d.Counters) {
		str(n)
		u64(uint64(d.Counters[n]))
	}
	for _, n := range sortedKeys(d.Histograms) {
		str(n)
		u64(uint64(d.Histograms[n].Count))
		u64(math.Float64bits(d.Histograms[n].Sum))
	}
	return h.Sum64()
}

// transfers sums every sink's `received` counter; latency sums every
// `latency` histogram: the two design statistics all the models share.
func (d *statsDoc) transfers() (n int64) {
	for name, v := range d.Counters {
		if strings.HasSuffix(name, ".received") {
			n += v
		}
	}
	return n
}

func (d *statsDoc) latency() (sum float64, count int64) {
	for _, name := range sortedKeys(d.Histograms) { // float sums depend on order
		if strings.HasSuffix(name, ".latency") {
			sum += d.Histograms[name].Sum
			count += d.Histograms[name].Count
		}
	}
	return sum, count
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// num reads a numeric field of a generically decoded JSON object; a field
// a later version no longer exports reads as zero.
func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// sumObj adds up the numeric values of a nested object field, e.g. the
// per-signal-kind default_fallbacks map.
func sumObj(m map[string]any, key string) (s float64) {
	obj, _ := m[key].(map[string]any)
	for _, v := range obj {
		f, _ := v.(float64)
		s += f
	}
	return s
}
