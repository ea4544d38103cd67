package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically written statistics counter. Counters are safe
// for concurrent use, but module code should only touch them from the
// once-per-cycle handlers (OnCycleStart/OnCycleEnd).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the counter's current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram bucket layout: bucket 0 collects non-positive (and tiny)
// samples; bucket i>0 covers the geometric range
// (2^(histMinExp+i-1), 2^(histMinExp+i)]; the last bucket absorbs
// overflow. 64 power-of-two buckets span ~1.5e-5 to ~1.4e14, which covers
// cycle counts, latencies and occupancies without configuration.
const (
	histBuckets = 64
	histMinExp  = -16
)

func histBucket(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	i := math.Ilogb(v) - histMinExp + 1
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

func histBounds(i int) (lo, hi float64) {
	if i == 0 {
		return math.Inf(-1), math.Ldexp(1, histMinExp)
	}
	return math.Ldexp(1, histMinExp+i-1), math.Ldexp(1, histMinExp+i)
}

// Histogram accumulates sample values and reports count, mean, min, max
// and fixed-bucket percentile estimates (quantiles are interpolated
// within power-of-two buckets, so they carry bucket-width error but need
// no per-sample storage). Like Counter, it is safe for concurrent use: a
// live metrics reader may take quantiles while the stepping goroutine
// Observes.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		h.min = math.Min(h.min, v)
		h.max = math.Max(h.max, v)
	}
	h.count++
	h.sum += v
	h.buckets[histBucket(v)]++
	h.mu.Unlock()
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the sample mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile estimates the q'th quantile (0 ≤ q ≤ 1) from the bucket
// counts, interpolating linearly inside the containing bucket and
// clamping to the observed [min, max]. It returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := histBounds(i)
			lo = math.Max(lo, h.min)
			hi = math.Min(hi, h.max)
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(n)
		}
		cum = next
	}
	return h.max
}

// P50 estimates the median.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 estimates the 95th percentile.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 estimates the 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// StatSet is the simulator-wide collection of named statistics.
type StatSet struct {
	mu     sync.Mutex
	counts map[string]*Counter
	hists  map[string]*Histogram
}

func newStatSet() *StatSet {
	return &StatSet{counts: make(map[string]*Counter), hists: make(map[string]*Histogram)}
}

func (s *StatSet) counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counts[name]
	if !ok {
		c = &Counter{}
		s.counts[name] = c
	}
	return c
}

func (s *StatSet) histogram(name string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// Counter returns the named counter, or nil when it does not exist.
func (s *StatSet) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

// Histogram returns the named histogram, or nil when it does not exist.
func (s *StatSet) Histogram(name string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hists[name]
}

// CounterValue returns the named counter's value, or 0 when absent.
func (s *StatSet) CounterValue(name string) int64 {
	if c := s.Counter(name); c != nil {
		return c.Value()
	}
	return 0
}

// Names returns all statistic names, sorted.
func (s *StatSet) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.counts)+len(s.hists))
	for n := range s.counts {
		names = append(names, n)
	}
	for n := range s.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Dump writes all statistics to w in sorted order, one per line.
func (s *StatSet) Dump(w io.Writer) { s.DumpPrefix(w, "") }

// DumpPrefix writes the statistics whose names start with prefix.
func (s *StatSet) DumpPrefix(w io.Writer, prefix string) {
	for _, n := range s.Names() {
		if prefix != "" && !strings.HasPrefix(n, prefix) {
			continue
		}
		s.mu.Lock()
		if c, ok := s.counts[n]; ok {
			s.mu.Unlock()
			fmt.Fprintf(w, "%-48s %12d\n", n, c.Value())
			continue
		}
		h := s.hists[n]
		s.mu.Unlock()
		fmt.Fprintf(w, "%-48s count=%d mean=%.4f min=%.4f max=%.4f p50=%.4f p95=%.4f p99=%.4f\n",
			n, h.Count(), h.Mean(), h.Min(), h.Max(), h.P50(), h.P95(), h.P99())
	}
}
