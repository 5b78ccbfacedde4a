# Build and verification entry points. `make check` is the fast gate a
# change must pass before review: formatting, vet, a module-wide
# race-detector run (plus a -count=2 pass over the serve path), a
# Go-benchmark compile/smoke pass, the fuzz seed-corpus regression pass,
# the fgserved/fgload smokes, and the tracked benchmark's vet, tests and
# smoke. `make bench` runs the tracked benchmark (BENCHMARK.json) once
# per workload; `make bench-ab REF=<commit> [N=10]` runs it in alternating
# pairs against REF, which is what a performance statement must rest on;
# `make load` runs a longer standalone soak with coherence checking.

.PHONY: all build test check figures bench bench-ab load

BENCH_WORKLOADS = serve-hot-inproc serve-hot-tcp serve-churn-inproc serve-batch-inproc sweep-figures

all: build

build:
	go build ./...

test:
	go test -shuffle=on ./...

check:
	sh scripts/check.sh

figures:
	go run ./cmd/fgexperiments

bench:
	for w in $(BENCH_WORKLOADS); do \
		sh benchmark/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

bench-ab:
	sh scripts/bench-ab.sh $(REF) $(N)

load:
	go run ./cmd/fgload -requests 2000 -concurrency 8 -seed 1 -coherence-batches 8
