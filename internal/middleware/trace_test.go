package middleware

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freerideg/internal/apps"
	"freerideg/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// traceRun runs a small deterministic simulated workload with the given
// sink attached and returns the result.
func traceRun(t *testing.T, sink Sink) SimResult {
	t.Helper()
	g := testGrid(t)
	total := 64 * units.MB
	a, _ := apps.Get("kmeans")
	spec := pointsSpec(total)
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.SimulateOpts(cost, spec, config(1, 2, total), SimOptions{Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTraceEventOrdering(t *testing.T) {
	col := NewCollector()
	res := traceRun(t, col)
	events := col.Events()
	if len(events) < 4 {
		t.Fatalf("only %d events emitted", len(events))
	}

	// Run-level framing: run-start first, run-end last, nothing in between.
	if events[0].Phase != PhaseRunStart || events[0].Pass != -1 {
		t.Errorf("first event = %+v, want run-start with pass=-1", events[0])
	}
	last := events[len(events)-1]
	if last.Phase != PhaseRunEnd || last.Pass != -1 {
		t.Errorf("last event = %+v, want run-end with pass=-1", last)
	}
	for _, ev := range events[1 : len(events)-1] {
		if ev.Phase == PhaseRunStart || ev.Phase == PhaseRunEnd {
			t.Errorf("run-level event %+v in the middle of the stream", ev)
		}
	}

	// Timestamps are monotone non-decreasing in emission order — the run=
	// framing events share the same clock as the phase events.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Errorf("event %d at %v precedes event %d at %v",
				i, events[i].At, i-1, events[i-1].At)
		}
	}

	// Pass numbering starts at 0 and advances by one at a time, covering
	// every pass of the run.
	pass := 0
	for _, ev := range events[1 : len(events)-1] {
		switch {
		case ev.Pass == pass:
		case ev.Pass == pass+1:
			pass = ev.Pass
		default:
			t.Errorf("event %+v skips from pass %d", ev, pass)
		}
	}
	if want := res.Profile.Iterations - 1; pass != want {
		t.Errorf("trace covers passes 0..%d, want 0..%d", pass, want)
	}

	// Within every pass the protocol order holds: retrieval/cached-fetch
	// before local-reduce before gather before global-reduce before
	// broadcast.
	rank := map[Phase]int{
		PhaseRetrieval:    0,
		PhaseDelivery:     1,
		PhaseCachedFetch:  0,
		PhaseLocalReduce:  2,
		PhaseGather:       3,
		PhaseGlobalReduce: 4,
		PhaseSync:         5,
		PhaseBroadcast:    6,
	}
	prev := -1
	prevPass := -1
	for _, ev := range events[1 : len(events)-1] {
		if ev.Pass != prevPass {
			prev, prevPass = -1, ev.Pass
		}
		r, ok := rank[ev.Phase]
		if !ok {
			t.Fatalf("unexpected phase %v inside pass %d", ev.Phase, ev.Pass)
		}
		if r <= prev {
			t.Errorf("pass %d: phase %v out of protocol order", ev.Pass, ev.Phase)
		}
		prev = r
	}

	// Every pass gathers, globally reduces, and broadcasts exactly once.
	for _, ph := range []Phase{PhaseGather, PhaseGlobalReduce, PhaseBroadcast} {
		count := 0
		for _, ev := range events {
			if ev.Phase == ph {
				count++
			}
		}
		if count != res.Profile.Iterations {
			t.Errorf("%d %v events, want %d", count, ph, res.Profile.Iterations)
		}
	}
}

func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	traceRun(t, NewTextSink(&buf))
	golden := filepath.Join("testdata", "trace_kmeans.golden")
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
		t.Errorf("trace deviates from golden file (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			got, want)
	}
}

func TestJSONSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	col := NewCollector()
	traceRun(t, col)
	want := col.Events()
	// The simulator is deterministic: a second run emits the same events.
	traceRun(t, NewJSONSink(&buf))

	var got []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d JSON events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d decodes to %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTraceTextFormat(t *testing.T) {
	var buf bytes.Buffer
	res := traceRun(t, NewTextSink(&buf))
	out := buf.String()
	for _, want := range []string{
		"run=kmeans backend=sim data=1 compute=2 passes=10",
		"gather",
		"global-reduce",
		"broadcast",
		"1 reduction objects",
		"1 workers",
		res.Makespan.String(),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q\ntrace:\n%s", want, out)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	g := testGrid(t)
	total := 64 * units.MB
	a, _ := apps.Get("kmeans")
	spec := pointsSpec(total)
	cost, _ := a.Cost(spec)
	// Nil sink must be a no-op (and not panic).
	if _, err := g.SimulateOpts(cost, spec, config(1, 1, total), SimOptions{}); err != nil {
		t.Fatal(err)
	}
}
