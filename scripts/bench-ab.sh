#!/bin/sh
# bench-ab.sh REF [N] — paired runs of the tracked benchmark: commit REF
# (the parent) against the working tree (the change), N pairs per
# workload (default 10), alternating which side runs first so that host
# drift lands on both sides alike. Absolute medians on a shared host move
# by more than the regression bounds between studies; paired runs are
# what a "no regression" or "gain" statement in CHANGES.md rests on.
#
#   WORKLOADS="serve-hot-inproc serve-churn-inproc" sh scripts/bench-ab.sh HEAD~1 10
#
# Every run is the BENCHMARK.json protocol — seed 1, 10 s, --trace 0 — on
# both sides; only the pair count and the workload list vary.
#
# REF is unpacked with `git archive` into .bench_build/ab-ref/ and builds
# into its own .bench_build/ there, exactly as the working tree builds
# into .bench_build/; each side runs its own copy of benchmark/, which
# must be identical. Every run is appended to .bench_build/ab-runs.tsv
# (workload, pair, side, metric, value); the table printed at the end
# gives, per metric × workload, both medians, the change's delta, the
# parent's interquartile spread, the pairs the change won, and a verdict
# against the metric's BENCHMARK.json bound:
#   ok          change's median is not worse than the parent's by more than the bound
#   WORSE       it is
#   unresolved  the parent's own spread exceeds the bound (and not every
#               change run beats every parent run), so neither can be said
set -eu

cd "$(dirname "$0")/.."
ref=${1:?usage: bench-ab.sh REF [N]   (env: WORKLOADS)}
pairs=${2:-10}
workloads=${WORKLOADS:-"serve-hot-inproc serve-hot-tcp serve-churn-inproc serve-batch-inproc sweep-figures"}
metrics="setup_s throughput_rps latency_p50_ms latency_p99_ms cpu_us_per_op peak_rss_mb"

if ! git diff --quiet "$ref" -- benchmark BENCHMARK.json; then
    echo "bench-ab: benchmark/ or BENCHMARK.json differ between $ref and the working tree; the two sides would not be measured alike" >&2
    exit 1
fi

refdir=.bench_build/ab-ref
runs=.bench_build/ab-runs.tsv
rm -rf "$refdir"
mkdir -p "$refdir"
git archive "$ref" | tar -x -C "$refdir"
: > "$runs"

# Build both sides before the first timed run.
sh "$refdir/benchmark/run.sh" -print-spec > /dev/null
sh benchmark/run.sh -print-spec > /dev/null

# run_side SIDE DIR WORKLOAD PAIR: one benchmark run, its six end-to-end
# metrics appended to $runs.
run_side() {
    line=$(sh "$2/benchmark/run.sh" --workload "$3" --seed 1 --seconds 10 --trace 0 | tail -n 1)
    case $line in
    '{"correct":true,"attempted":'*',"failed":0,'*) ;;
    *)
        echo "bench-ab: $1 run of $3 (pair $4) was not correct: $line" >&2
        exit 1
        ;;
    esac
    for m in $metrics; do
        v=$(printf '%s\n' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")
        printf '%s\t%s\t%s\t%s\t%s\n' "$3" "$4" "$1" "$m" "$v" >> "$runs"
    done
    echo "  $3 pair $4 $1: $(printf '%s\n' "$line" | sed 's/.*"metrics"://; s/,"unit":"[^"]*"//g; s/{"value"://g; s/[{}"]//g')"
}

for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run_side parent "$refdir" "$w" "$i"
            run_side change . "$w" "$i"
        else
            run_side change . "$w" "$i"
            run_side parent "$refdir" "$w" "$i"
        fi
        i=$((i + 1))
    done
done

awk -F '\t' '
# Pass 1, BENCHMARK.json: direction and bound of each end-to-end metric.
FNR == NR {
    if ($0 ~ /"name":/)   { name = $0; gsub(/.*"name": *"|".*/, "", name) }
    if ($0 ~ /"better":/) { b = $0; gsub(/.*"better": *"|".*/, "", b); better[name] = b }
    if ($0 ~ /"bound":/)  { b = $0; gsub(/.*"bound": *|,.*/, "", b); bound[name] = b + 0 }
    next
}
# Pass 2, the runs.
{
    key = $1 SUBSEP $4
    if (!(key in seen)) { seen[key] = 1; order[++nkeys] = key }
    val[key, $3, $2] = $5 + 0
    if ($2 + 0 > n[key]) n[key] = $2 + 0
}
function sorted(key, side, out,    i, j, t) {
    for (i = 1; i <= n[key]; i++) out[i] = val[key, side, i]
    for (i = 2; i <= n[key]; i++)
        for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
}
function quantile(a, cnt, q,    pos, lo) {
    pos = 1 + (cnt - 1) * q; lo = int(pos)
    if (lo >= cnt) return a[cnt]
    return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
END {
    printf "\n%-19s %-15s %12s %12s %8s %9s %6s %7s  %s\n", "workload", "metric", "parent_med", "change_med", "delta", "par_iqr", "wins", "bound", "verdict"
    for (k = 1; k <= nkeys; k++) {
        key = order[k]; split(key, part, SUBSEP); m = part[2]; cnt = n[key]
        sorted(key, "parent", p); sorted(key, "change", c)
        pm = quantile(p, cnt, 0.5); cm = quantile(c, cnt, 0.5)
        iqr = (quantile(p, cnt, 0.75) - quantile(p, cnt, 0.25)) / pm
        sign = (better[m] == "higher") ? 1 : -1      # gain = sign * (change - parent)
        wins = 0
        for (i = 1; i <= cnt; i++) if (sign * (val[key, "change", i] - val[key, "parent", i]) > 0) wins++
        delta = (cm - pm) / pm
        clear = (sign > 0) ? (c[1] > p[cnt]) : (c[cnt] < p[1])   # every change run beats every parent run
        verdict = "ok"
        if (-sign * delta > bound[m]) verdict = "WORSE"
        else if (iqr > bound[m] && !clear) verdict = "unresolved"
        printf "%-19s %-15s %12.4g %12.4g %+7.1f%% %8.1f%% %3d/%-2d %6.0f%%  %s\n", part[1], m, pm, cm, 100 * delta, 100 * iqr, wins, cnt, 100 * bound[m], verdict
    }
}' BENCHMARK.json "$runs"
echo
echo "bench-ab: every run is in $runs"
