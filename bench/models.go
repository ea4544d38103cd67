package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	core "liberty/internal/core"
	"liberty/internal/lss"
	"liberty/internal/obs"
	"liberty/internal/systems"
)

// Workload sizes. Tuned once on the 2-vCPU reference host so that a job
// of a run workload takes 0.4-1.5 s, then frozen: changing one changes
// what every recorded number means.
const (
	meshCycles      = 10_000 // mesh_busy: cycles per job
	cmpRefs2a       = 200    // cmp_coherence: references per core, Fig 2a 4x4
	cmpRefs2c       = 400    // cmp_coherence: references per core, Fig 2c 4x2 torus
	sensorNodes     = 64     // sensornet_acyclic
	sensorSamples   = 200    // sensornet_acyclic: samples per node
	sensorThreshold = 40
	cycleCap        = 2_000_000 // RunUntil limit; reaching it fails the job
	warmCycles      = 500       // set-up of a run workload: cycles simulated before timing starts
)

// pinnedSpecs are the copies of specs/*.lss under bench/specs, so editing
// the corpus cannot move the benchmark.
var pinnedSpecs = []string{"quickstart", "pipeline", "bus", "typed", "sensornet", "mesh"}

func loadSpecs(dir string) (map[string]string, error) {
	specs := map[string]string{}
	for _, name := range pinnedSpecs {
		raw, err := os.ReadFile(filepath.Join(dir, "specs", name+".lss"))
		if err != nil {
			return nil, err
		}
		specs[name] = string(raw)
	}
	return specs, nil
}

// built is one constructed model, ready to run.
type built struct {
	sim *core.Sim
	// done ends the run (RunUntil); nil means run exactly cycles.
	done   func() bool
	cycles uint64
	// check tests the model's own invariants after the run.
	check func() error
}

// model constructs one paper model to a ready simulator, recording the
// construction spans on jt. extra carries the options that distinguish a
// traced job (metrics) or a reference job (sequential engine).
type model struct {
	name  string
	build func(jt *jobTrace, seed int64, extra []core.BuildOption) (*built, error)
}

// lssModel is the Figure 1 path — what lss.LoadFile does, taken apart at
// its public seams so each phase gets a span: parse, compile (which
// elaborates once onto a probe), stamp (which elaborates again).
func lssModel(specs map[string]string, spec string, defines map[string]any, cycles uint64) model {
	return model{name: spec + ".lss", build: func(jt *jobTrace, seed int64, extra []core.BuildOption) (*built, error) {
		var f *lss.File
		var err error
		jt.span("lss.parse", func() int64 {
			f, err = lss.ParseFile(spec+".lss", specs[spec])
			return 0
		})
		if err != nil {
			return nil, err
		}
		recipe := func(b *core.Builder) error {
			var err error
			jt.span("lss.elab", func() int64 {
				err = lss.NewElaborator(b).ElaborateWith(f, defines)
				return 0
			})
			return err
		}
		var prog *core.Program
		opts := append([]core.BuildOption{core.WithSeed(seed)}, extra...)
		jt.span("core.compile", func() int64 {
			prog, err = core.Compile(recipe, opts...)
			return 0
		})
		if err != nil {
			return nil, err
		}
		var sim *core.Sim
		jt.span("core.stamp", func() int64 {
			var before uint64
			if jt != nil {
				before = selfMem().Mallocs
			}
			sim, err = prog.NewSim()
			if jt != nil {
				return int64(selfMem().Mallocs - before)
			}
			return 0
		})
		if err != nil {
			return nil, err
		}
		return &built{sim: sim, cycles: cycles}, nil
	}}
}

// goModel is a Figure 2 system assembled through the Go API: one assembly
// recipe onto a Builder, then Build (compile and stamp in one call).
func goModel(name string, assemble func(b *core.Builder, seed int64) (*built, error)) model {
	return model{name: name, build: func(jt *jobTrace, seed int64, extra []core.BuildOption) (*built, error) {
		b := core.NewBuilder(append([]core.BuildOption{core.WithSeed(seed)}, extra...)...)
		var m *built
		var err error
		jt.span("systems.assemble", func() int64 {
			m, err = assemble(b, seed)
			return 0
		})
		if err != nil {
			return nil, err
		}
		jt.span("core.compile", func() int64 {
			m.sim, err = b.Build()
			return 0
		})
		if err != nil {
			return nil, err
		}
		m.cycles = cycleCap
		return m, nil
	}}
}

func cmpModel(name string, cfg systems.CMPCfg) model {
	return goModel(name, func(b *core.Builder, seed int64) (*built, error) {
		cfg := cfg
		cfg.Seed = seed
		cmp, err := systems.BuildCMP(b, name, cfg)
		if err != nil {
			return nil, err
		}
		want := cfg.W * cfg.H * cfg.RefsPer
		return &built{done: cmp.Done, check: func() error {
			if got := cmp.Completed(); got != want {
				return fmt.Errorf("%s: %d references completed, want %d", name, got, want)
			}
			return nil
		}}, nil
	})
}

var (
	fig2a = cmpModel("fig2a", systems.CMPCfg{W: 4, H: 4, RefsPer: cmpRefs2a, Think: 2, SharedPct: 30})
	fig2c = cmpModel("fig2c", systems.CMPCfg{W: 4, H: 2, RefsPer: cmpRefs2c, Think: 2, SharedPct: 30, Torus: true})
)

func sensornetModel(nodes, samples int) model {
	return goModel("fig2b", func(b *core.Builder, _ int64) (*built, error) {
		net, err := systems.BuildSensorNet(b, "sn", nodes, samples, sensorThreshold)
		if err != nil {
			return nil, err
		}
		return &built{done: net.Exhausted, check: func() error {
			if net.Base.Received() == 0 {
				return errors.New("fig2b: base station received nothing")
			}
			return nil
		}}, nil
	})
}

var fig2d = goModel("fig2d", func(b *core.Builder, _ int64) (*built, error) {
	sos, err := systems.BuildSoS(b, "sos", systems.SoSCfg{
		Clusters: 2, SensorsPer: 2, SamplesPer: 16, Threshold: 10, Batch: 4,
	})
	if err != nil {
		return nil, err
	}
	return &built{done: func() bool { return sos.Grid.Done() && sos.SummariesDelivered() >= 4 }}, nil
})

// inproc is a workload whose jobs construct models in this process and
// either run them to completion or take a single step.
type inproc struct {
	e      *env
	nvar   int
	models func(specs map[string]string) []model
	// run: simulate each model to its end and take the stats JSON.
	// Otherwise a job stops at the ready simulator plus one Step.
	run bool

	ms []model
}

func newMeshBusy(e *env) workload {
	return &inproc{e: e, nvar: 2, run: true, models: func(specs map[string]string) []model {
		return []model{lssModel(specs, "mesh", nil, meshCycles)}
	}}
}

func newCMPCoherence(e *env) workload {
	return &inproc{e: e, nvar: 2, run: true, models: func(map[string]string) []model {
		return []model{fig2a, fig2c}
	}}
}

func newSensornet(e *env) workload {
	return &inproc{e: e, nvar: 2, run: true, models: func(map[string]string) []model {
		return []model{sensornetModel(sensorNodes, sensorSamples)}
	}}
}

func newConstructCorpus(e *env) workload {
	return &inproc{e: e, nvar: 1, models: func(specs map[string]string) []model {
		var ms []model
		for _, name := range pinnedSpecs {
			ms = append(ms, lssModel(specs, name, nil, 0))
		}
		big := lssModel(specs, "mesh", map[string]any{"w": int64(8), "h": int64(8)}, 0)
		big.name = "mesh8x8.lss"
		return append(ms, big, fig2a, sensornetModel(sensorNodes, sensorSamples), fig2c, fig2d)
	}}
}

func (w *inproc) variants() int           { return w.nvar }
func (w *inproc) clients() int            { return 1 }
func (w *inproc) pid() int                { return os.Getpid() }
func (w *inproc) mem() (memSample, error) { return selfMem(), nil }
func (w *inproc) tearDown()               {}

// jobSeed is the model seed of job i: job i repeats job i%variants, so a
// run has a fixed, seed-derived set of distinct inputs however many jobs
// fit into its time.
func (w *inproc) jobSeed(i int) int64 { return w.e.seed*1000 + int64(i%w.nvar) }

// setUp loads the pinned inputs and constructs every model once, so the
// template registry, the parser tables and the heap are warm before jobs
// are timed.
func (w *inproc) setUp() error {
	specs, err := loadSpecs(w.e.dir)
	if err != nil {
		return err
	}
	w.ms = w.models(specs)
	steps := uint64(1)
	if w.run {
		steps = warmCycles
	}
	return w.exec(nil, w.jobSeed(0), execOpts{steps: steps}).err
}

// steps is how far a job of this workload simulates each model.
func (w *inproc) steps() uint64 {
	if w.run {
		return 0 // to the model's end
	}
	return 1
}

func (w *inproc) job(i int, jt *jobTrace) jobResult {
	var extra []core.BuildOption
	if jt != nil {
		extra = append(extra, core.WithMetrics())
	}
	// A traced construct job also takes the statistics, for the work
	// counts and the schedule's shape; its time goes to obs.snapshot. Only
	// the first traced round's documents are read, so later ones are
	// dropped rather than held until the run ends.
	r := w.exec(jt, w.jobSeed(i), execOpts{extra: extra, steps: w.steps(), snapshot: w.run || jt != nil})
	if !w.run && !keepsDocs(i, w.nvar) {
		r.docs = nil
	}
	return r
}

type execOpts struct {
	extra    []core.BuildOption
	steps    uint64          // cycles to simulate; 0 means to the model's end
	snapshot bool            // take the statistics JSON afterwards
	inspect  func(*core.Sim) // sees each simulator before it is closed
}

// exec is one job: construct each model, run or step it, take its
// statistics.
func (w *inproc) exec(jt *jobTrace, seed int64, o execOpts) (r jobResult) {
	run := o.steps == 0
	for _, m := range w.ms {
		start := time.Now()
		b, err := m.build(jt, seed, o.extra)
		if err != nil {
			r.err = fmt.Errorf("%s: %w", m.name, err)
			return r
		}
		r.modelMs = append(r.modelMs, float64(time.Since(start).Nanoseconds())/1e6)
		// allocs_per_cycle; a single Step (construct_corpus) has no steady
		// state to rate, and reading MemStats stops the world.
		countAllocs := run && w.e.trace
		var before uint64
		if countAllocs {
			before = selfMem().Mallocs
		}
		d := jt.span("core.step", func() int64 {
			switch {
			case !run:
				err = b.sim.Run(o.steps)
			case b.done != nil:
				var ok bool
				ok, err = b.sim.RunUntil(func(*core.Sim) bool { return b.done() }, b.cycles)
				if err == nil && !ok {
					err = fmt.Errorf("not done after %d cycles", b.cycles)
				}
			default:
				err = b.sim.Run(b.cycles)
			}
			return int64(b.sim.Now())
		})
		if countAllocs {
			r.runMallocs += selfMem().Mallocs - before
		}
		r.stepNs += d.Nanoseconds()
		r.cycles += b.sim.Now()
		if err == nil && run && b.check != nil {
			err = b.check()
		}
		if err == nil && !run && b.sim.Now() != o.steps {
			err = fmt.Errorf("at cycle %d after %d steps", b.sim.Now(), o.steps)
		}
		if err == nil && o.snapshot {
			var buf bytes.Buffer
			jt.span("obs.snapshot", func() int64 {
				err = obs.WriteJSON(&buf, b.sim)
				return int64(buf.Len())
			})
			r.docs = append(r.docs, buf.Bytes())
		}
		if o.inspect != nil {
			o.inspect(b.sim)
		}
		b.sim.Close()
		if err != nil {
			r.err = fmt.Errorf("%s: %w", m.name, err)
			return r
		}
	}
	return r
}

// reference runs every distinct job once more, untimed, under the
// sequential engine — the oracle every engine must match bit for bit.
func (w *inproc) reference([]jobResult) (ref refResult, err error) {
	ref.pkgOf = map[string]string{}
	seq := execOpts{
		extra: []core.BuildOption{core.WithScheduler(core.SchedulerSequential)},
		steps: w.steps(), snapshot: true,
		inspect: func(sim *core.Sim) { libraries(sim, ref.pkgOf) },
	}
	for v := 0; v < w.nvar; v++ {
		r := w.exec(nil, w.jobSeed(v), seq)
		if r.err != nil {
			return ref, fmt.Errorf("reference job %d: %w", v, r.err)
		}
		ds, err := digests(r.docs)
		if err != nil {
			return ref, err
		}
		ref.digests = append(ref.digests, ds)
		ref.stepNs += r.stepNs
		ref.cycles += r.cycles
	}
	if !w.run {
		// Timed construct jobs take no statistics; digest one extra job
		// under the default engine here instead.
		r := w.exec(nil, w.jobSeed(0), execOpts{steps: 1, snapshot: true})
		if r.err != nil {
			return ref, r.err
		}
		ref.extra = append(ref.extra, r)
	}
	return ref, nil
}

// libraries records, per instance name, the component library (Go
// package) its type comes from: pcl, ccl, mpl, upl, systems, core.
func libraries(sim *core.Sim, into map[string]string) {
	for _, inst := range sim.Instances() {
		t := reflect.TypeOf(inst)
		for t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		into[inst.Name()] = t.PkgPath()[strings.LastIndexByte(t.PkgPath(), '/')+1:]
	}
}

func digests(docs [][]byte) ([]uint64, error) {
	var ds []uint64
	for _, raw := range docs {
		d, err := parseStats(raw)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d.digest())
	}
	return ds, nil
}

// digestOf digests a live simulator's statistics through the same JSON
// the jobs produce.
func digestOf(sim *core.Sim) (uint64, error) {
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, sim); err != nil {
		return 0, err
	}
	d, err := parseStats(buf.Bytes())
	if err != nil {
		return 0, err
	}
	return d.digest(), nil
}
