#!/bin/sh
# check.sh — the repository's fast correctness gate: formatting, vet, a
# module-wide race-detector run (the fault-injected goroutine backend
# exercises real concurrency well beyond the middleware package), a
# fuzz seed-corpus regression pass (every Fuzz* target replayed against
# its checked-in corpus, no new fuzzing), the fgrun -local fault smoke,
# the fgserved smoke, and the tracked benchmark's own vet, tests and
# 1 s-per-workload smoke.
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

# -shuffle=on randomizes test and subtest order so hidden inter-test
# state dependencies surface instead of calcifying. The root package's
# serve-plane differential test (default server vs. the cache-off,
# trace-off reference, byte for byte) runs here under the race detector.
go test -race -shuffle=on ./...

# The serve path (response cache, handlers, the profile store's
# snapshots and their memoised predictors) gets a second racing pass:
# -count=2 reruns every test in-process so state leaked by a first run
# (cache entries, shared metric counters) breaks the second. This is
# also where the serve-plane soaks run under the race detector:
# TestCoherenceSoak (reads checked by value against the calibration of
# the store version they carry while recalibrations land — every
# /predict field and every /select and /select/batch candidate's
# predicted time) and TestCancellationSoak (only 499/504/503 under
# tight client deadlines, and every goroutine drains afterwards).
go test -race -count=2 -shuffle=on ./internal/fgservice/ ./internal/servecache/ ./internal/profile/

# Go benchmark smoke pass: compile and run every Benchmark* exactly once
# so the microbenchmarks used while working on a layer can't rot.
go test -run='^$' -bench=. -benchtime=1x ./...

# Allocation gates (race-free on purpose: the race detector makes
# sync.Pool drop items at random, so the pooled paths only meet their
# budgets under a plain build): the warm rank path and the pooled JSON
# encoder must hold their testing.AllocsPerRun budgets.
go test -run='Allocs' ./internal/grid/ ./internal/fgservice/

# Metrics scrape-vs-observe regression, explicitly under the race
# detector: a scrape stalled on a slow writer must never block
# observers or registration — the exposition formats from snapshots
# taken under the locks, never while holding them.
go test -race -run 'TestScrape' -count=1 ./internal/metrics/

# Request-tracing smoke: the span-tree acceptance test (a self-profiling
# /predict/batch trace shows root → handler → item → simulate and is
# retrievable from /debug/requests by its X-FG-Request-ID) plus
# the reqtrace package under the race detector. The fgserved selfcheck
# below re-proves the ID round-trip over real TCP.
go test -race -run 'TestPredictBatchTraceTree|TestTimeoutEnvelopeCarriesRequestID' -count=1 ./internal/fgservice/
go test -race -count=1 ./internal/reqtrace/

# Fuzz regression mode: -run='^Fuzz' replays each target's seed corpus
# (f.Add seeds plus files under testdata/fuzz/) as ordinary tests.
go test -run='^Fuzz' ./internal/simgrid/ ./internal/fgservice/

# Every command must build — a broken main is invisible to `go test`.
go build ./cmd/...

# CLI goldens: the prediction and selection commands are deterministic,
# so their whole output is compared byte for byte against testdata/cli.
# A -save/-load round trip must predict what the run that saved the
# profile predicts: a loaded profile defaults the target bandwidth and
# measures cross-cluster scaling factors at its own configuration, not
# at the -base/-bw flag defaults.
clitmp=$(mktemp -d)
trap 'rm -rf "$clitmp"' EXIT
go build -o "$clitmp" ./cmd/fgpredict ./cmd/fgselect
golden() {
    name=$1 cmd=$2
    shift 2
    "$clitmp/$cmd" "$@" >"$clitmp/$name.out" 2>&1 || true
    if ! cmp -s "$clitmp/$name.out" "testdata/cli/$name.golden"; then
        echo "CLI golden $name differs:" >&2
        diff "testdata/cli/$name.golden" "$clitmp/$name.out" >&2 || true
        exit 1
    fi
}
same_predictions() {
    grep predicted "$1" >"$clitmp/want"
    grep predicted "$2" >"$clitmp/got"
    if ! cmp -s "$clitmp/want" "$clitmp/got"; then
        echo "fgpredict -load predicts differently from the run that saved the profile:" >&2
        diff "$clitmp/want" "$clitmp/got" >&2 || true
        exit 1
    fi
}
golden fgpredict-cross-cluster fgpredict -app defect -size 130MB -base 4,4 \
    -target 8,16 -target-size 1.8GB -target-cluster opteron-infiniband
golden fgselect fgselect -app kmeans -size 1.4GB
golden fgselect-deadline fgselect -app kmeans -size 1.4GB -deadline 2h
"$clitmp/fgpredict" -app defect -size 130MB -base 4,4 \
    -target-cluster pentium-myrinet -save "$clitmp/s.json" >/dev/null
"$clitmp/fgpredict" -app defect -load "$clitmp/s.json" -target 8,16 \
    -target-size 1.8GB -target-cluster opteron-infiniband >"$clitmp/load.out"
same_predictions testdata/cli/fgpredict-cross-cluster.golden "$clitmp/load.out"
"$clitmp/fgpredict" -app defect -size 130MB -bw 50MB -base 4,4 \
    -save "$clitmp/s50.json" >"$clitmp/save50.out"
"$clitmp/fgpredict" -app defect -load "$clitmp/s50.json" >"$clitmp/load50.out"
same_predictions "$clitmp/save50.out" "$clitmp/load50.out"

# Goroutine-backend smoke through its one command-line caller: the
# seed-7 fault plan's flaky link must force exactly two re-materialized
# deliveries on a real 2-4 run.
out=$(go run ./cmd/fgrun -app kmeans -size 8MB -local -data 2 -compute 4 -fault-seed 7)
if ! echo "$out" | grep -q 'over 2 retried deliver'; then
    echo "fgrun -local smoke: expected 2 retried deliveries, got:" >&2
    echo "$out" >&2
    exit 1
fi

# fgserved smoke: start the service on an ephemeral port, drive every
# endpoint over real TCP, assert the request/instrumentation counters
# moved between two /metrics scrapes, that every response carries an
# X-FG-Request-ID which round-trips into /debug/requests (error
# envelopes echo it as requestId), and shut down gracefully. A small
# base size keeps the self-profiling simulation quick.
go run ./cmd/fgserved -selfcheck -base-size 64MB

# The tracked benchmark is a module of its own (benchmark/go.mod), so
# nothing above descends into it: vet and test it where it lives, then
# run every workload, untraced and traced, for 1 s with its correctness
# oracles on (run.sh builds into .bench_build/).
(cd benchmark && go vet . && go test .)
sh benchmark/run.sh -smoke

echo "check: OK"
