package fgservice

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"freerideg/internal/reqtrace"
	"freerideg/internal/units"
)

// findTrace scans a ring snapshot for the record with the given request
// ID, searching every retention section.
func findTrace(snap reqtrace.RingSnapshot, id string) *reqtrace.Record {
	for _, sec := range [][]reqtrace.Record{snap.Recent, snap.Slowest, snap.Errored} {
		for i := range sec {
			if sec[i].ID == id {
				return &sec[i]
			}
		}
	}
	return nil
}

// spanChain walks parent pointers from span idx up to the root and
// returns the names along the way, leaf first.
func spanChain(spans []reqtrace.SpanRecord, idx int) []string {
	var names []string
	for idx >= 0 && idx < len(spans) {
		names = append(names, spans[idx].Name)
		idx = spans[idx].Parent
	}
	return names
}

// TestPredictBatchTraceTree is the span-tree acceptance test: a
// /predict/batch request on a fresh server with an empty store (so the
// item self-profiles) must produce a trace observable via
// /debug/requests showing root → handler → per-item workpool span →
// simulate, with every span inside the root's window, and the response
// must carry X-FG-Request-ID.
func TestPredictBatchTraceTree(t *testing.T) {
	// Empty store: kmeans self-profiles, so the trace includes the
	// simulate span. Small BaseBytes keeps the profiling run fast.
	s, err := New(Options{BaseBytes: 8 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	s.batchParallelism = 1
	h := s.Handler()

	rec := postJSON(t, h, "/predict/batch", `{"items":[`+goodPredict+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-FG-Request-ID")
	if id == "" {
		t.Fatal("response carries no X-FG-Request-ID header")
	}

	dbg := getPath(t, h, "/debug/requests")
	if dbg.Code != http.StatusOK {
		t.Fatalf("/debug/requests status %d: %s", dbg.Code, dbg.Body)
	}
	var snap reqtrace.RingSnapshot
	if err := json.Unmarshal(dbg.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/requests is not a ring snapshot: %v\n%s", err, dbg.Body)
	}
	tr := findTrace(snap, id)
	if tr == nil {
		t.Fatalf("request %s not present in /debug/requests: %s", id, dbg.Body)
	}
	if tr.Path != "/predict/batch" || tr.Status != http.StatusOK {
		t.Fatalf("trace = path %q status %d, want /predict/batch 200", tr.Path, tr.Status)
	}

	// Structural invariants: spans[0] is the root, every other span's
	// parent precedes it, and every span's window fits inside the root's.
	spans := tr.Spans
	if len(spans) == 0 || spans[0].Parent != -1 || spans[0].Name != "/predict/batch" {
		t.Fatalf("malformed root: %+v", spans)
	}
	root := spans[0]
	for i, sp := range spans[1:] {
		if sp.Parent < 0 || sp.Parent > i {
			t.Errorf("span %d %q: parent %d does not precede it", i+1, sp.Name, sp.Parent)
		}
		if sp.StartNs < 0 || sp.DurationNs < 0 || sp.StartNs+sp.DurationNs > root.DurationNs {
			t.Errorf("span %q window [%d, +%d] escapes root window [0, %d]",
				sp.Name, sp.StartNs, sp.DurationNs, root.DurationNs)
		}
	}
	// The root's direct children (the handler span) sum to at most the
	// root duration.
	var childSum time.Duration
	for _, sp := range spans[1:] {
		if sp.Parent == 0 {
			childSum += sp.DurationNs
		}
	}
	if childSum > root.DurationNs {
		t.Errorf("root's children sum to %dns > root %dns", childSum, root.DurationNs)
	}

	// The acceptance chain: the self-profiling simulation hangs off the
	// batch item, under the handler.
	simIdx := -1
	for i, sp := range spans {
		if sp.Name == "simulate" {
			simIdx = i
			break
		}
	}
	if simIdx < 0 {
		t.Fatalf("no simulate span in trace: %+v", spans)
	}
	got := spanChain(spans, simIdx)
	want := []string{"simulate", "item", "handler", "/predict/batch"}
	if len(got) != len(want) {
		t.Fatalf("simulate chain %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("simulate chain %v, want %v", got, want)
		}
	}
	// The item span carries its positional index and outcome.
	itemIdx := spans[simIdx].Parent
	if note := spans[itemIdx].Note; !strings.Contains(note, "i=0") || !strings.Contains(note, "ok") {
		t.Errorf("item span note %q, want positional index and outcome", note)
	}
	// decode and encode spans bracket the handler work.
	names := make(map[string]bool, len(spans))
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"decode", "encode"} {
		if !names[want] {
			t.Errorf("trace has no %q span: %+v", want, spans)
		}
	}
}

// TestTimeoutEnvelopeCarriesRequestID pins the correlation contract on
// the middleware-written error path: the 504 envelope the middleware
// renders when the handler overruns its deadline carries the same
// request ID as the X-FG-Request-ID header, and the timed-out request
// is retained in the errored section of the trace ring.
func TestTimeoutEnvelopeCarriesRequestID(t *testing.T) {
	s, err := New(Options{Store: testStore(t), MaxInFlight: 4, RequestTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.delay = 2 * time.Second
	rec := postJSON(t, s.Handler(), "/predict", goodPredict)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-FG-Request-ID")
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("504 body is not a JSON envelope: %v\n%s", err, rec.Body)
	}
	if id == "" || e.RequestID != id {
		t.Fatalf("envelope requestId %q vs header %q: want equal and non-empty", e.RequestID, id)
	}

	dbg := getPath(t, s.Handler(), "/debug/requests")
	var snap reqtrace.RingSnapshot
	if err := json.Unmarshal(dbg.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	tr := findTrace(snap, id)
	if tr == nil {
		t.Fatalf("timed-out request %s not retained in trace ring", id)
	}
	if tr.Status != http.StatusGatewayTimeout {
		t.Fatalf("retained trace status %d, want 504", tr.Status)
	}
	found := false
	for i := range snap.Errored {
		if snap.Errored[i].ID == id {
			found = true
		}
	}
	if !found {
		t.Errorf("504 trace missing from the errored reservation")
	}
}

// TestSlowRequestLogged: a request over the slow threshold emits one
// structured log line carrying the request ID and a span breakdown.
func TestSlowRequestLogged(t *testing.T) {
	var buf syncBuffer
	s, err := New(Options{Store: testStore(t), SlowRequestThreshold: time.Nanosecond, SlowLogWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, s.Handler(), "/predict", goodPredict)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-FG-Request-ID")
	line := buf.String()
	for _, want := range []string{"slow_request", "id=" + id, "path=/predict", "status=200", "handler:"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log %q missing %q", line, want)
		}
	}
}

// TestTraceSampleDisablesTracing: with sampling off, responses still
// carry request IDs but no traces are retained.
func TestTraceSampleDisablesTracing(t *testing.T) {
	s, err := New(Options{Store: testStore(t), TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, s.Handler(), "/predict", goodPredict)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-FG-Request-ID") == "" {
		t.Error("request ID must be issued even with tracing disabled")
	}
	dbg := getPath(t, s.Handler(), "/debug/requests")
	var snap reqtrace.RingSnapshot
	if err := json.Unmarshal(dbg.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if n := len(snap.Recent) + len(snap.Slowest) + len(snap.Errored); n != 0 {
		t.Errorf("trace ring holds %d records with sampling disabled", n)
	}
}

// TestTraceSampleOneInN: with TraceSample=4, roughly one request in
// four is traced — exactly 4 of 16 here, since sampling is a strict
// modulo counter, not probabilistic.
func TestTraceSampleOneInN(t *testing.T) {
	s, err := New(Options{Store: testStore(t), TraceSample: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 16; i++ {
		if rec := postJSON(t, h, "/predict", goodPredict); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	dbg := getPath(t, h, "/debug/requests")
	var snap reqtrace.RingSnapshot
	if err := json.Unmarshal(dbg.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Recent); got != 4 {
		t.Errorf("traced %d of 16 requests at TraceSample=4, want 4", got)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slow-request log
// writer must tolerate writes from whichever goroutine finishes a
// request.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// replayBody is a rewindable request body so the allocation gate can
// reuse one request object across runs.
type replayBody struct{ r *strings.Reader }

func (b replayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b replayBody) Close() error               { return nil }

// TestPredictWarmPathAllocs is the hot-path allocation gate for the
// whole request pipeline: a singular /predict on a profiled app with
// tracing disabled by sampling. The request-ID machinery contributes
// exactly two of these allocations (the ID string and its header value
// slice), the deadline context three; the rest is decode and encode
// scratch and the response value itself. Measured 35; the budget has
// modest headroom so a regression that adds per-request garbage trips
// it while scheduler jitter does not.
func TestPredictWarmPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	s, err := New(Options{Store: testStore(t), TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// Build the app's predictor so every measured run is the steady state.
	if rec := postJSON(t, h, "/predict", goodPredict); rec.Code != http.StatusOK {
		t.Fatalf("warmup status %d: %s", rec.Code, rec.Body)
	}

	body := strings.NewReader(goodPredict)
	req := httptest.NewRequest(http.MethodPost, "/predict", nil)
	req.Header.Set("Content-Type", "application/json")
	req.Body = replayBody{r: body}
	w := &discardRW{h: make(http.Header)}
	per := testing.AllocsPerRun(200, func() {
		body.Seek(0, io.SeekStart)
		h.ServeHTTP(w, req)
	})
	const budget = 44.0
	if per > budget {
		t.Errorf("warm /predict allocates %.1f objects per request, want <= %.0f", per, budget)
	}
}
