package fgservice

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freerideg/internal/core"
	"freerideg/internal/metrics"
	"freerideg/internal/units"
)

// postJSONCtx is postJSON with a caller-owned request context, for tests
// that cancel a request mid-handling.
func postJSONCtx(ctx context.Context, h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestTimeoutAnswersJSONEnvelope pins the 504 path: a request that
// exhausts its deadline budget gets a parseable JSON error envelope (the
// old http.TimeoutHandler wrote plain text no client of this API could
// decode) and moves the per-endpoint deadline counter.
func TestTimeoutAnswersJSONEnvelope(t *testing.T) {
	s, err := New(Options{Store: testStore(t), MaxInFlight: 4, RequestTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.delay = 2 * time.Second
	deadlines := metrics.GetCounter("fg_requests_deadline_exceeded_total",
		"Requests that exhausted the per-request deadline budget and answered 504, by endpoint.",
		metrics.Label{Key: "path", Value: "/predict"})
	before := deadlines.Value()

	body := `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"}}`
	rec := postJSON(t, s.Handler(), "/predict", body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: status %d, want 504: %s", rec.Code, rec.Body)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("504 body is not a JSON error envelope: %v\n%s", err, rec.Body)
	}
	if e.Status != http.StatusGatewayTimeout || e.Error == "" {
		t.Fatalf("504 envelope = %+v", e)
	}
	if after := deadlines.Value(); after != before+1 {
		t.Fatalf("deadline counter moved %v -> %v, want +1", before, after)
	}
	// Both outcome counters must be visible in the exposition.
	metricsOut := getPath(t, s.Handler(), "/metrics").Body.String()
	for _, name := range []string{"fg_requests_deadline_exceeded_total", "fg_requests_canceled_total"} {
		if !strings.Contains(metricsOut, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestClientDisconnectFreesLimiterSlot is the regression test for the
// stuck-slot bug: with one concurrency slot and a slow handler, a client
// that disconnects mid-/select must free the slot promptly — the next
// request gets handled instead of being shed with 503 for the rest of
// the abandoned request's (long) deadline.
func TestClientDisconnectFreesLimiterSlot(t *testing.T) {
	s, err := New(Options{Store: testStore(t), MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.delay = 30 * time.Second // far beyond the test's patience: only cancellation can free the slot
	h := s.Handler()
	canceledCtr := metrics.GetCounter("fg_requests_canceled_total",
		"Requests abandoned because the client disconnected mid-handling, by endpoint.",
		metrics.Label{Key: "path", Value: "/select"})
	before := canceledCtr.Value()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"app":"kmeans","size":"512MB"}`
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postJSONCtx(ctx, h, "/select", body) }()

	// Wait until the first request holds the only slot.
	waitFor(t, time.Second, func() bool { return s.lim.saturated() })
	if code := postJSON(t, h, "/select", body).Code; code != http.StatusServiceUnavailable {
		t.Fatalf("second request while slot held: status %d, want 503", code)
	}

	cancel()
	rec := <-first
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("abandoned request: status %d, want 499: %s", rec.Code, rec.Body)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Status != StatusClientClosedRequest {
		t.Fatalf("499 body is not the JSON envelope (%v): %s", err, rec.Body)
	}
	if after := canceledCtr.Value(); after != before+1 {
		t.Fatalf("canceled counter moved %v -> %v, want +1", before, after)
	}

	// The slot must come back without waiting out the 30s delay: the
	// handler goroutine unwinds on ctx and releases it.
	waitFor(t, 2*time.Second, func() bool { return !s.lim.saturated() })
	// And a fresh request is admitted again. Its handler still runs
	// against the long test delay, so bound it with its own deadline:
	// 504 proves it got the slot; only a 503 would mean a stuck slot.
	ctx3, cancel3 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel3()
	if code := postJSONCtx(ctx3, h, "/select", body).Code; code != http.StatusGatewayTimeout {
		t.Fatalf("request after slot freed: status %d, want 504 (admitted, then its own deadline)", code)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBatchCancelStopsClaiming is the regression test for the
// keeps-working-after-cancel bug: a canceled /select/batch must stop
// claiming new items. Every unknown app in the batch costs one profiling
// simulation, so the simulation count is the observable: with serial
// item claiming and a cancel fired from inside the first item's
// profiling run, exactly one simulation may ever start, and every
// unclaimed item must answer a distinct 499-style per-item error rather
// than ride along as a silent empty success.
func TestBatchCancelStopsClaiming(t *testing.T) {
	s, err := New(Options{
		Store:        testStore(t),
		MaxInFlight:  4,
		DisableCache: true,
		BaseBytes:    8 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.batchParallelism = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sims atomic.Int32
	s.harness.SetObserver(func(core.Profile) {
		sims.Add(1)
		cancel() // the client departs while item 0 is still profiling
	})

	// None of these apps are in the test store, so each item profiles.
	apps := []string{"ann", "apriori", "em", "knn", "vortex", "defect"}
	items := make([]string, len(apps))
	for i, app := range apps {
		items[i] = fmt.Sprintf(`{"app":%q,"size":"32MB"}`, app)
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`

	// Call the batch handler directly (no middleware) so the test
	// observes the handler's own synchronous completion.
	req := httptest.NewRequest(http.MethodPost, "/select/batch", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.handleSelectBatch(rec, req)

	if got := sims.Load(); got != 1 {
		t.Fatalf("canceled batch ran %d profiling simulations, want 1 (it must stop claiming items)", got)
	}
	var resp SelectBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding batch response: %v\n%s", err, rec.Body)
	}
	if len(resp.Items) != len(apps) {
		t.Fatalf("%d items in response, want %d", len(resp.Items), len(apps))
	}
	for i, item := range resp.Items {
		if item.Response != nil {
			t.Errorf("item %d: unexpected success after cancel", i)
			continue
		}
		if item.Error == nil {
			t.Errorf("item %d: no response and no error — a silent empty item", i)
			continue
		}
		if item.Error.Status != StatusClientClosedRequest {
			t.Errorf("item %d: error status %d, want 499: %s", i, item.Error.Status, item.Error.Error)
		}
		if i > 0 && !strings.Contains(item.Error.Error, "not evaluated") {
			t.Errorf("item %d: unclaimed item error %q does not say it was never evaluated", i, item.Error.Error)
		}
	}
}
