GO ?= go

.PHONY: check vet build test race cover bench bench-e2e bench-e2e-compare bench-e2e-pairs serve-smoke lint

## check: full gate — vet, build, and the test suite under the race detector.
check: vet build race

## vet: go vet, and gofmt -l must print nothing.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

## lint: static analysis — lslint over the shipped specs (fails on any
## warning or error) and the vetlse phase checker over every Go package
## via go vet.
lint:
	$(GO) build -o bin/lslint ./cmd/lslint
	$(GO) build -o bin/vetlse ./cmd/vetlse
	./bin/lslint specs/*.lss examples
	$(GO) vet -vettool=$$(pwd)/bin/vetlse ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## cover: the engine's coverage by the whole suite — every package's
## tests count toward internal/core — one line per function, lowest first.
cover:
	$(GO) test -coverpkg=./internal/core/... -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | sort -k3 -n

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

## serve-smoke: end-to-end daemon smoke — build lsd, spawn it as a real
## process, drive submit/stamp/run/observe/snapshot/restore over HTTP,
## then SIGINT it and require a clean shutdown.
serve-smoke:
	$(GO) build -o bin/lsd ./cmd/lsd
	$(GO) run ./tools/servesmoke -lsd bin/lsd
