package middleware

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

// faultPlanText exercises all three fault kinds in one run: node 1
// crashes after two chunks of pass 1, the single storage node's disk
// degrades for two deliveries, and its link drops two deliveries.
const faultPlanText = "crash node=1 pass=1 chunk=2; " +
	"slow-disk node=0 pass=0 chunk=1 factor=8 count=2; " +
	"flaky-link node=0 pass=0 chunk=3 count=2"

// faultTraceRun runs the trace_test.go workload under faultPlanText.
func faultTraceRun(t *testing.T, sink Sink) SimResult {
	t.Helper()
	plan, err := simgrid.ParseFaultPlan(faultPlanText)
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(t)
	total := 64 * units.MB
	a, _ := apps.Get("kmeans")
	spec := pointsSpec(total)
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.SimulateOpts(cost, spec, config(1, 2, total), SimOptions{
		Faults: &plan,
		Trace:  sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The faulted trace is pinned byte-for-byte: fault onset markers, retried
// deliveries, and the failover re-partition all appear at reproducible
// virtual times. Regenerate with -update after intentional changes.
func TestTraceFaultsGolden(t *testing.T) {
	var buf bytes.Buffer
	faultTraceRun(t, NewTextSink(&buf))
	golden := filepath.Join("testdata", "trace_kmeans_faults.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("fault trace deviates from golden file (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			got, want)
	}
}

// Recovery events land in the passes the plan schedules them for, carry
// the faulting node, and reconcile with the run's recovery accounting.
func TestTraceFaultEventPlacement(t *testing.T) {
	col := NewCollector()
	res := faultTraceRun(t, col)

	byPhase := func(ph Phase) []Event {
		var out []Event
		for _, ev := range col.Events() {
			if ev.Phase == ph {
				out = append(out, ev)
			}
		}
		return out
	}

	faults := byPhase(PhaseFault)
	if len(faults) != 3 {
		t.Fatalf("%d fault events, want 3 (crash, slow-disk, flaky-link): %+v", len(faults), faults)
	}
	for _, ev := range faults {
		if ev.Dur != 0 {
			t.Errorf("fault onset %+v carries a duration; onsets are markers", ev)
		}
	}

	retries := byPhase(PhaseRetry)
	if len(retries) != res.Retries {
		t.Errorf("%d retry events, result reports %d retries", len(retries), res.Retries)
	}
	for _, ev := range retries {
		if ev.Pass != 0 {
			t.Errorf("retry %+v outside pass 0, where the flaky link is scheduled", ev)
		}
		if ev.Dur <= 0 {
			t.Errorf("retry %+v carries no cost", ev)
		}
	}

	failovers := byPhase(PhaseFailover)
	if len(failovers) != 1 {
		t.Fatalf("%d failover events, want 1: %+v", len(failovers), failovers)
	}
	if fo := failovers[0]; fo.Pass != 1 || fo.Node != 1 {
		t.Errorf("failover %+v, want pass=1 node=1 per the plan", fo)
	}

	if sum := col.PhaseTotal(PhaseRetry) + col.PhaseTotal(PhaseFailover); sum != res.Recovery {
		t.Errorf("retry+failover event durations sum to %v, result recovery is %v", sum, res.Recovery)
	}
	if got, want := col.Breakdown(), res.Profile.Breakdown; got != want {
		t.Errorf("collector breakdown %+v != profile breakdown %+v", got, want)
	}
}

// Two runs of the same plan produce byte-identical JSON traces — the
// whole fault pipeline is deterministic, including virtual timestamps.
func TestTraceFaultsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	resA := faultTraceRun(t, NewJSONSink(&a))
	resB := faultTraceRun(t, NewJSONSink(&b))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical fault runs diverge:\nfirst:\n%s\nsecond:\n%s", a.String(), b.String())
	}
	if resA.Makespan != resB.Makespan || resA.Recovery != resB.Recovery || resA.Retries != resB.Retries {
		t.Errorf("results diverge: %+v vs %+v", resA, resB)
	}
}

// TestTraceFailoverRefetchGolden pins a multi-pass crash plan in which
// survivors re-fetch inherited chunks from their home data servers in
// cached passes: fgrun's seed-7 plan on kmeans 8MB at 2-4 (node 0
// crashes in pass 1, node 1 in pass 3; the re-fetches contend with each
// other for the two data servers). The order and timing of those
// contended re-fetches depend on every cached-pass wait a survivor takes
// before them, so a worker that fetches before its clock has caught up
// shifts this trace. The golden is the trace part of fgrun's own output
// for the same run, testdata/cli/fgrun-sim-fault-trace.golden, between
// its fault-plan header and its report footer; -update rewrites those
// lines and keeps the rest, which scripts/check.sh compares with fgrun.
func TestTraceFailoverRefetchGolden(t *testing.T) {
	spec := kmeans8MB()
	total := spec.TotalBytes
	a, _ := apps.Get("kmeans")
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := simgrid.GenerateFaultPlan(7, 2, 4, cost.Iterations)
	var buf bytes.Buffer
	res, err := testGrid(t).SimulateOpts(cost, spec, config(2, 4, total), SimOptions{
		Faults: &plan,
		Trace:  NewTextSink(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 2 {
		t.Errorf("%d retried deliveries, want the plan's 2", res.Retries)
	}
	golden := filepath.Join("..", "..", "testdata", "cli", "fgrun-sim-fault-trace.golden")
	out, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	head, want, tail := splitTrace(string(out))
	if *updateGolden {
		want = buf.String()
		if err := os.WriteFile(golden, []byte(head+want+tail), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := buf.String(); got != want {
		t.Errorf("failover re-fetch trace deviates from the trace lines of %s (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// kmeans8MB is the dataset of `fgrun -app kmeans -size 8MB`.
func kmeans8MB() adr.DatasetSpec {
	return adr.DatasetSpec{
		Name:       "kmeans-8MB",
		TotalBytes: 8 * units.MB,
		ElemBytes:  128,
		ChunkBytes: 128 * units.KB,
		Kind:       "points",
		Dims:       16,
		Seed:       41,
	}
}

// splitTrace splits a program's output into the lines before its text
// phase trace, the trace (the lines from the first to the last one that
// starts with "t="), and the lines after it.
func splitTrace(out string) (head, trace, tail string) {
	lines := strings.SplitAfter(out, "\n")
	first, last := len(lines), len(lines)
	for i, l := range lines {
		if strings.HasPrefix(l, "t=") {
			first, last = min(first, i), i+1
		}
	}
	return strings.Join(lines[:first], ""), strings.Join(lines[first:last], ""), strings.Join(lines[last:], "")
}
