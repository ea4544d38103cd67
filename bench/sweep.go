package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/obs"
)

// orionCycles is the measured length of one operating point. The rates are
// cmd/orion's defaults.
const orionCycles = 500

var orionRates = []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 0.95}

// orionSweep is the claim-C5 experiment: an 8x8 mesh compiled once and
// stamped once per operating point. A job makes the calls
// ccl.RunSweepContext makes with Parallel 1 — NewSweepProgram, then
// MeasureRate per rate — itself, because only these expose the boundary
// between a point's stamp and its run (SweepCfg.OnSim).
type orionSweep struct {
	e     *env
	pkgOf map[string]string
}

func newOrionSweep(e *env) workload { return &orionSweep{e: e} }

func (w *orionSweep) variants() int           { return 1 }
func (w *orionSweep) clients() int            { return 1 }
func (w *orionSweep) pid() int                { return os.Getpid() }
func (w *orionSweep) mem() (memSample, error) { return selfMem(), nil }
func (w *orionSweep) tearDown()               {}

func (w *orionSweep) cfg() ccl.SweepCfg {
	return ccl.SweepCfg{W: 8, H: 8, Pattern: "uniform", Cycles: orionCycles, Seed: w.e.seed * 1000, Parallel: 1}
}

// setUp compiles the network and measures one point, so the first timed
// job finds the code and the heap warm.
func (w *orionSweep) setUp() error {
	w.pkgOf = map[string]string{}
	cfg := w.cfg()
	cfg.OnSim = func(sim *core.Sim) { libraries(sim, w.pkgOf) }
	sp, err := ccl.NewSweepProgram(cfg)
	if err != nil {
		return err
	}
	_, err = sp.MeasureRate(context.Background(), orionRates[0])
	return err
}

func (w *orionSweep) job(i int, jt *jobTrace) (r jobResult) {
	cfg := w.cfg()
	cfg.Metrics = jt != nil
	var (
		sim        *core.Sim
		stamp, run open
		before     uint64
	)
	cfg.OnSim = func(s *core.Sim) {
		jt.end(stamp, 0)
		sim = s
		if w.e.trace {
			before = selfMem().Mallocs
		}
		run = jt.begin("ccl.sweep_run")
	}
	var sp *ccl.SweepProgram
	jt.span("ccl.sweep_compile", func() int64 {
		sp, r.err = ccl.NewSweepProgram(cfg)
		return 0
	})
	if r.err != nil {
		return r
	}
	for _, rate := range orionRates {
		sim = nil
		stamp = jt.begin("ccl.sweep_stamp")
		pt, err := sp.MeasureRate(context.Background(), rate)
		if sim == nil {
			jt.end(stamp, 0)
			r.err = errors.Join(err, fmt.Errorf("rate %g: the point was never stamped", rate))
			return r
		}
		r.stepNs += jt.end(run, int64(sim.Now())).Nanoseconds()
		if w.e.trace {
			r.runMallocs += selfMem().Mallocs - before
		}
		r.cycles += sim.Now()
		if err == nil && !(pt.Throughput > 0) {
			err = fmt.Errorf("throughput %g", pt.Throughput)
		}
		if err != nil {
			r.err = fmt.Errorf("rate %g: %w", rate, err)
			return r
		}
		r.digests = append(r.digests, pointDigest(pt))
		if jt != nil {
			var buf bytes.Buffer
			jt.span("obs.snapshot", func() int64 {
				r.err = obs.WriteJSON(&buf, sim)
				return int64(buf.Len())
			})
			if r.err != nil {
				return r
			}
			if keepsDocs(i, w.variants()) {
				r.docs = append(r.docs, buf.Bytes())
			}
		}
	}
	return r
}

// pointDigest hashes a point's measurements bit for bit.
func pointDigest(pt ccl.SweepPoint) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []float64{pt.OfferedRate, pt.Throughput, pt.MeanLatency, pt.PowerMw, pt.DynamicMw, pt.LeakageMw} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// reference: SweepCfg cannot select the sequential engine, so the oracle
// here is that every job of a run measures bit-identical points (and, for
// the default seed, the points golden.json records).
func (w *orionSweep) reference(timed []jobResult) (refResult, error) {
	for _, r := range timed {
		if r.err == nil {
			return refResult{digests: [][]uint64{r.digests}, pkgOf: w.pkgOf}, nil
		}
	}
	return refResult{}, errors.New("no sweep completed")
}
