GO ?= go

.PHONY: check vet build test race bench bench-e2e bench-e2e-compare bench-e2e-pairs bench-smoke bench-weave serve-smoke lint

## check: full gate — vet, build, and the test suite under the race detector.
check: vet build race

## vet: go vet, and gofmt -l must print nothing.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

## lint: static analysis — lslint over the spec corpus (fails on
## error-severity diagnostics; warnings tolerated) and the vetlse phase
## checker over every Go package via go vet.
lint:
	$(GO) build -o bin/lslint ./cmd/lslint
	$(GO) build -o bin/vetlse ./cmd/vetlse
	./bin/lslint specs/*.lss examples || [ $$? -eq 1 ]
	$(GO) vet -vettool=$$(pwd)/bin/vetlse ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

## bench-e2e: the repository's benchmark (bench/README.md) — six paper
## workloads run to completion, untraced and traced pass, every metric
## printed and written to bench/out/result-<commit>-<seed>.json. Extra
## lsbench arguments go in ARGS (e.g. ARGS="-runs 3 -seed 1").
bench-e2e:
	bash bench/run.sh $(ARGS)

## bench-e2e-compare: gate result file B against A with the bounds of
## BENCHMARK.json; exits 1 on a regression.
bench-e2e-compare:
	bash bench/run.sh compare $(A) $(B)

## bench-e2e-pairs: the paired measurement a gain claim rests on — N
## (default 10) pairs of one workload W, the working tree against a clone
## of revision PARENT, alternating which side runs first; prints each
## side's median and quartiles and the change's wins per end-to-end metric.
N ?= 10
bench-e2e-pairs:
	$(GO) run ./tools/benchpairs -w $(W) -parent $(PARENT) -n $(N)

## bench-smoke: fast CI sanity pass over the scheduler benchmarks, gated
## against the checked-in BENCH_10.json baseline (fail on >25% slowdown,
## or on allocs/op above a baselined zero-alloc row). Three samples per
## benchmark; benchguard compares the min of them, so one noisy sample
## on a shared host doesn't fail the gate.
bench-smoke:
	$(GO) test -bench='BenchmarkLevelized|BenchmarkSparse|BenchmarkTyped|BenchmarkNewSimFromProgram|BenchmarkSessionStampHTTP|BenchmarkDataflow|BenchmarkPruned|BenchmarkWoven' -benchtime=200x -benchmem -count=3 -run=^$$ . | tee bench-smoke.out
	$(GO) run ./tools/benchguard -baseline BENCH_10.json bench-smoke.out
	@rm -f bench-smoke.out

## bench-weave: woven-scheduler acceptance gate — the default-control
## pipeline and acyclic grid under interpreted levelized vs woven, gated
## two ways: against the BENCH_10.json baseline, and the woven rows must
## never be slower than their levelized twins from the same run
## (benchguard -notslower; the issue target is >=2x, the baseline pins
## ~130x, and the comparative gate keeps the direction honest on any
## host speed).
bench-weave:
	$(GO) test -bench='BenchmarkWoven' -benchtime=200x -benchmem -count=3 -run=^$$ . | tee bench-weave.out
	$(GO) run ./tools/benchguard -baseline BENCH_10.json \
		-notslower 'BenchmarkWovenPipeline/woven<=BenchmarkWovenPipeline/levelized' \
		-notslower 'BenchmarkWovenMesh/woven<=BenchmarkWovenMesh/levelized' bench-weave.out
	@rm -f bench-weave.out

## serve-smoke: end-to-end daemon smoke — build lsd, spawn it as a real
## process, drive submit/stamp/run/observe/snapshot/restore over HTTP,
## then SIGINT it and require a clean shutdown.
serve-smoke:
	$(GO) build -o bin/lsd ./cmd/lsd
	$(GO) run ./tools/servesmoke -lsd bin/lsd
