package fgservice

import (
	"bytes"
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
	"freerideg/internal/reqtrace"
	"freerideg/internal/units"
)

const batchPredictItem = `{"app":"kmeans","config":{"cluster":"pentium-myrinet",` +
	`"dataNodes":4,"computeNodes":8,"bandwidth":"100MB","datasetBytes":"1.4GB"}}`

// TestPredictBatchMatchesSingular pins the batch plane to the singular
// endpoint: a good item's response must be exactly the /predict answer,
// and bad items must answer with the same status the singular endpoint
// would have, without failing the batch.
func TestPredictBatchMatchesSingular(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	want := predictResponseOf(t, h, batchPredictItem)

	body := fmt.Sprintf(`{"items":[%s,%s,%s,%s]}`,
		batchPredictItem,
		`{"app":"no-such-app","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"1MB","datasetBytes":"1MB"}}`,
		`{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":8,"computeNodes":4,"bandwidth":"100MB","datasetBytes":"1GB"}}`,
		`{"app":"kmeans","variant":"bogus","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"1MB","datasetBytes":"1MB"}}`)
	rec := postJSON(t, h, "/predict/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/predict/batch status %d: %s", rec.Code, rec.Body)
	}
	var resp PredictBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("batch answered %d items, want 4", len(resp.Items))
	}
	if resp.Items[0].Response == nil || resp.Items[0].Error != nil {
		t.Fatalf("good item answered with error: %+v", resp.Items[0].Error)
	}
	if *resp.Items[0].Response != want {
		t.Fatalf("batch item differs from singular /predict:\n%+v\nvs\n%+v", *resp.Items[0].Response, want)
	}
	if resp.StoreVersion != want.StoreVersion {
		t.Fatalf("batch StoreVersion %d, item served at %d", resp.StoreVersion, want.StoreVersion)
	}
	for i, wantStatus := range map[int]int{1: http.StatusNotFound, 2: http.StatusBadRequest, 3: http.StatusBadRequest} {
		item := resp.Items[i]
		if item.Error == nil {
			t.Fatalf("bad item %d answered without error: %+v", i, item.Response)
		}
		if item.Error.Status != wantStatus {
			t.Fatalf("bad item %d status %d (%s), want %d", i, item.Error.Status, item.Error.Error, wantStatus)
		}
	}
}

// TestSelectBatchMatchesSingular pins select batches the same way,
// including the per-item Limit truncation.
func TestSelectBatchMatchesSingular(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	single := postJSON(t, h, "/select", `{"app":"kmeans","size":"512MB"}`)
	if single.Code != http.StatusOK {
		t.Fatalf("/select status %d: %s", single.Code, single.Body)
	}
	var want SelectResponse
	if err := json.Unmarshal(single.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}

	body := `{"items":[` +
		`{"app":"kmeans","size":"512MB"},` +
		`{"app":"kmeans","size":"512MB","limit":2},` +
		`{"app":"kmeans","size":"not-a-size"},` +
		`{"app":"kmeans","size":"512MB","deadline":"-3s"}]}`
	rec := postJSON(t, h, "/select/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/select/batch status %d: %s", rec.Code, rec.Body)
	}
	var resp SelectBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("batch answered %d items, want 4", len(resp.Items))
	}
	got := resp.Items[0].Response
	if got == nil {
		t.Fatalf("good item answered with error: %+v", resp.Items[0].Error)
	}
	if got.StoreVersion != want.StoreVersion || len(got.Candidates) != len(want.Candidates) ||
		*got.Selected != *want.Selected {
		t.Fatalf("batch item differs from singular /select:\n%+v\nvs\n%+v", got, want)
	}
	for i := range want.Candidates {
		if got.Candidates[i] != want.Candidates[i] {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, got.Candidates[i], want.Candidates[i])
		}
	}
	if limited := resp.Items[1].Response; limited == nil || len(limited.Candidates) != 2 {
		t.Fatalf("limit item: %+v", resp.Items[1])
	}
	for _, i := range []int{2, 3} {
		if resp.Items[i].Error == nil || resp.Items[i].Error.Status != http.StatusBadRequest {
			t.Fatalf("bad item %d: %+v", i, resp.Items[i])
		}
	}
}

// TestBatchSizeRejected: an empty batch and an oversized batch are
// whole-request 400s.
func TestBatchSizeRejected(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	if rec := postJSON(t, h, "/predict/batch", `{"items":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", rec.Code)
	}
	items := make([]string, MaxBatchItems+1)
	for i := range items {
		items[i] = `{"app":"kmeans","size":"1MB"}`
	}
	over := `{"items":[` + strings.Join(items, ",") + `]}`
	if rec := postJSON(t, h, "/select/batch", over); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", rec.Code)
	}
}

// TestBatchFillsAndHitsResponseCache: /select/batch items go through the
// same versioned response cache as singular /select requests —
// duplicates inside one batch collapse to one fill, and a later singular
// request hits what the batch filled.
func TestBatchFillsAndHitsResponseCache(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	hits := cacheCounter(t, "fg_servecache_hits_total", "select")
	misses := cacheCounter(t, "fg_servecache_misses_total", "select")
	coalesced := cacheCounter(t, "fg_servecache_coalesced_total", "select")
	h0, m0, c0 := hits.Value(), misses.Value(), coalesced.Value()

	const item = `{"app":"kmeans","size":"512MB"}`
	items := make([]string, 8)
	for i := range items {
		items[i] = item
	}
	rec := postJSON(t, h, "/select/batch", `{"items":[`+strings.Join(items, ",")+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("/select/batch status %d: %s", rec.Code, rec.Body)
	}
	if got := misses.Value() - m0; got != 1 {
		t.Fatalf("8 identical batch items filled %v times, want 1 (single-flight)", got)
	}
	// The other 7 items are served by that one fill either way the race
	// falls: a hit on the completed entry or a coalesced wait on the
	// in-flight one.
	if h, c := hits.Value()-h0, coalesced.Value()-c0; h+c != 7 {
		t.Fatalf("8 identical batch items: %v hits + %v coalesced, want 7 combined", h, c)
	}
	hb := hits.Value()
	if rec := postJSON(t, h, "/select", item); rec.Code != http.StatusOK {
		t.Fatalf("/select status %d", rec.Code)
	}
	if got := hits.Value() - hb; got != 1 {
		t.Fatalf("singular request after batch did not hit the cache (hits moved %v)", got)
	}
}

// TestCutShortBatchAnswersEnvelope pins what a batch its context cut
// short answers over HTTP: the whole-request 499/504 envelope, counted
// on the endpoint's canceled / deadline-exceeded and error counters like
// any other request — never a 200 whose items carry the bad news, which
// a client checking only the HTTP status would take for success.
func TestCutShortBatchAnswersEnvelope(t *testing.T) {
	// None of these apps are in the test store, so each item profiles.
	apps := []string{"ann", "apriori", "em", "knn", "vortex", "defect"}
	items := make([]string, len(apps))
	for i, app := range apps {
		items[i] = fmt.Sprintf(`{"app":%q,"size":"32MB"}`, app)
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`
	label := metrics.Label{Key: "path", Value: "/select/batch"}

	for _, tc := range []struct {
		name    string
		timeout time.Duration // 0: the client departs instead
		status  int
		counter string
	}{
		{"client departs", 0, StatusClientClosedRequest, "fg_requests_canceled_total"},
		{"deadline", 100 * time.Millisecond, http.StatusGatewayTimeout, "fg_requests_deadline_exceeded_total"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Options{
				Store:          testStore(t),
				MaxInFlight:    4,
				DisableCache:   true,
				BaseBytes:      8 * units.MB,
				RequestTimeout: tc.timeout,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.batchParallelism = 1
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			release := make(chan struct{})
			defer close(release)
			var sims atomic.Int32
			s.harness.SetObserver(func(core.Profile) {
				sims.Add(1)
				if tc.timeout == 0 {
					cancel() // the client departs while item 0 is still profiling
				} else {
					<-release // item 0's profiling outlasts the request's budget
				}
			})
			outcome := metrics.GetCounter(tc.counter, "", label)
			outcomeBefore, errsBefore := outcome.Value(), errorCounter("/select/batch").Value()

			rec := postJSONCtx(ctx, s.Handler(), "/select/batch", body)

			if rec.Code != tc.status {
				t.Fatalf("cut-short batch: status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("body is not a JSON error envelope: %v\n%s", err, rec.Body)
			}
			if e.Status != tc.status || !strings.Contains(e.Error, "cut short") || e.RequestID == "" {
				t.Errorf("envelope = %+v, want status %d, a cut-short message and the request ID", e, tc.status)
			}
			if got := outcome.Value() - outcomeBefore; got != 1 {
				t.Errorf("%s moved by %v, want 1", tc.counter, got)
			}
			if got := errorCounter("/select/batch").Value() - errsBefore; got != 1 {
				t.Errorf("fg_http_errors_total moved by %v, want 1", got)
			}
			if got := sims.Load(); got > 1 {
				t.Errorf("cut-short batch ran %d profiling simulations, want at most 1", got)
			}
		})
	}
}

// TestBatchMetricsMove smoke-checks the fg_batch_* series.
func TestBatchMetricsMove(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	reqs := metrics.GetCounter("fg_batch_requests_total", "")
	items := metrics.GetCounter("fg_batch_items_total", "")
	errs := metrics.GetCounter("fg_batch_item_errors_total", "")
	r0, i0, e0 := reqs.Value(), items.Value(), errs.Value()
	body := fmt.Sprintf(`{"items":[%s,{"app":"no-such-app","config":{"cluster":"c","dataNodes":1,`+
		`"computeNodes":1,"bandwidth":"1MB","datasetBytes":"1MB"}}]}`, batchPredictItem)
	if rec := postJSON(t, h, "/predict/batch", body); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if reqs.Value()-r0 != 1 || items.Value()-i0 != 2 || errs.Value()-e0 != 1 {
		t.Fatalf("batch counters moved (%v, %v, %v), want (1, 2, 1)",
			reqs.Value()-r0, items.Value()-i0, errs.Value()-e0)
	}
}

// discardRW is a ResponseWriter without a growing body buffer, so the
// writeJSON allocation gate measures writeJSON and not the recorder.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) WriteHeader(int)             {}

// TestWriteJSONPooledAllocs is the hot-path allocation gate for the
// response encoder: with pooled encode state, writing a typical
// response allocates only the boxed value, the Content-Length string
// and the two header value slices, never an encoder or a buffer.
func TestWriteJSONPooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	resp := PredictResponse{App: "kmeans", Variant: "global", Pretty: "t_d=1s"}
	w := &discardRW{h: make(http.Header)}
	per := testing.AllocsPerRun(200, func() {
		writeJSON(w, http.StatusOK, resp)
	})
	if per > 4.0 {
		t.Errorf("writeJSON allocates %.1f objects per call, want <= 4", per)
	}
}

// TestWriteJSONCountsEncodeFailures: an unencodable value must count,
// not silently truncate the response, and answer the fallback 500
// envelope byte for byte.
func TestWriteJSONCountsEncodeFailures(t *testing.T) {
	failures := metrics.GetCounter("fg_http_encode_failures_total", "")
	f0 := failures.Value()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": func() {}})
	if failures.Value()-f0 != 1 {
		t.Fatalf("encode failures moved %v, want 1", failures.Value()-f0)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	// The fallback envelope is written as formatted, never re-indented.
	const want = "{\n  \"error\": \"encoding response: json: unsupported type: func()\",\n  \"status\": 500\n}\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("500 envelope:\n%q\nwant:\n%q", got, want)
	}
}

// TestWriteJSONSetsContentLength: the pooled path must declare the
// response length it buffered.
func TestWriteJSONSetsContentLength(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, apiError{Error: "x", Status: 400})
	cl := rec.Header().Get("Content-Length")
	if cl == "" {
		t.Fatal("Content-Length not set")
	}
	if want := fmt.Sprint(rec.Body.Len()); cl != want {
		t.Fatalf("Content-Length %s, body is %s bytes", cl, want)
	}
}

// indentedEncode is the reference writeJSON's body must equal: the
// stdlib encoder with SetIndent("", "  "), which rendered every
// response before the one-pass indenter.
func indentedEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBody decodes a handler's JSON response into a fresh T.
func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %s: %v", rec.Body, err)
	}
	return v
}

// TestWriteJSONMatchesIndentedEncoder: every response type writeJSON
// serves must keep the exact wire bytes of the indenting encoder.
func TestWriteJSONMatchesIndentedEncoder(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	ctx := context.Background()

	var pred PredictRequest
	if err := json.Unmarshal([]byte(batchPredictItem), &pred); err != nil {
		t.Fatal(err)
	}
	predResp, err := s.predict(ctx, &pred)
	if err != nil {
		t.Fatal(err)
	}
	selResp, err := s.selectReplica(ctx, &SelectRequest{App: "kmeans", Size: "1.4GB"})
	if err != nil || selResp.Selected == nil {
		t.Fatalf("select: %v (selected %v)", err, selResp.Selected)
	}
	unselected := selResp
	unselected.Selected = nil
	bad := PredictRequest{App: "no-such-app"}
	predBatch, err := batchOf(s, s.predict)(ctx, &PredictBatchRequest{Items: []PredictRequest{pred, bad}})
	if err != nil {
		t.Fatal(err)
	}
	selBatch, err := batchOf(s, s.selectReplica)(ctx, &SelectBatchRequest{Items: []SelectRequest{
		{App: "kmeans", Size: "512MB", Limit: 2}, {App: "kmeans", Size: "bogus"}}})
	if err != nil {
		t.Fatal(err)
	}
	if predBatch.Items[1].Error == nil || selBatch.Items[1].Error == nil {
		t.Fatal("want an error item in each batch")
	}
	observed, err := s.observe(ctx, &ObserveRequest{Site: "osu", Cluster: "pentium-myrinet", Bytes: "64MB", Elapsed: "800ms"})
	if err != nil {
		t.Fatal(err)
	}
	// The served documents: a 400 for the errored trace section first.
	postJSON(t, h, "/predict", `{"app":`)
	postJSON(t, h, "/predict", goodPredict)
	profiles := decodeBody[ProfilesResponse](t, getPath(t, h, "/profiles"))
	health := decodeBody[HealthResponse](t, getPath(t, h, "/healthz"))
	ring := decodeBody[reqtrace.RingSnapshot](t, getPath(t, h, "/debug/requests"))
	if len(profiles.Profiles) == 0 || len(ring.Recent) == 0 || len(ring.Errored) == 0 {
		t.Fatalf("want non-empty documents: %d profiles, %d recent, %d errored traces",
			len(profiles.Profiles), len(ring.Recent), len(ring.Errored))
	}

	for _, c := range []struct {
		name string
		v    any
	}{
		{"predict", &predResp},
		{"select", &selResp},
		{"select-unselected", &unselected},
		{"predict-batch", &predBatch},
		{"select-batch", &selBatch},
		{"observe", &observed},
		{"error", apiError{Error: "bad \"x\" <y> & \\ \u2028 \xff", Status: 400, RequestID: "r-1"}},
		{"profiles", &profiles},
		{"healthz", &health},
		{"debug-requests", &ring},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, c.v)
			if want := indentedEncode(t, c.v); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("writeJSON wrote:\n%s\nthe indenting encoder writes:\n%s", rec.Body, want)
			}
		})
	}
}

// BenchmarkWriteJSONSelectBatch renders a 64-item /select/batch
// response: the largest body the serve plane writes on its hot path.
func BenchmarkWriteJSONSelectBatch(b *testing.B) {
	s := benchServer(b, Options{})
	req := SelectBatchRequest{Items: make([]SelectRequest, 64)}
	for i := range req.Items {
		req.Items[i] = SelectRequest{App: "kmeans", Size: fmt.Sprintf("%dMB", 128+8*i)}
	}
	resp, err := batchOf(s, s.selectReplica)(context.Background(), &req)
	if err != nil {
		b.Fatal(err)
	}
	w := &discardRW{h: make(http.Header)}
	b.SetBytes(int64(len(indentedEncode(b, &resp))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeJSON(w, http.StatusOK, &resp)
	}
}

// BenchmarkPredictBatch measures a 64-item batch through the full
// handler stack against 64 sequential singular requests — the
// amortization the batch plane exists for.
func BenchmarkPredictBatch(b *testing.B) {
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf(`{"app":"kmeans","config":{"cluster":"pentium-myrinet",`+
			`"dataNodes":4,"computeNodes":8,"bandwidth":"%dMB","datasetBytes":"1.4GB"}}`, 50+i)
	}
	batchBody := `{"items":[` + strings.Join(items, ",") + `]}`

	post := func(b *testing.B, h http.Handler, path, body string) {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s status %d: %s", path, rec.Code, rec.Body)
		}
	}

	b.Run("batch-64", func(b *testing.B) {
		h := benchServer(b, Options{}).Handler()
		post(b, h, "/predict/batch", batchBody)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, "/predict/batch", batchBody)
		}
	})
	b.Run("sequential-64", func(b *testing.B) {
		h := benchServer(b, Options{}).Handler()
		for _, item := range items {
			post(b, h, "/predict", item)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, item := range items {
				post(b, h, "/predict", item)
			}
		}
	})
}

// BenchmarkSelectBatch is the select-side pairing of
// BenchmarkPredictBatch, with distinct sizes so every item ranks.
func BenchmarkSelectBatch(b *testing.B) {
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf(`{"app":"kmeans","size":"%dMB"}`, 128+8*i)
	}
	batchBody := `{"items":[` + strings.Join(items, ",") + `]}`

	post := func(b *testing.B, h http.Handler, path, body string) {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s status %d: %s", path, rec.Code, rec.Body)
		}
	}

	b.Run("batch-64", func(b *testing.B) {
		h := benchServer(b, Options{}).Handler()
		post(b, h, "/select/batch", batchBody)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, "/select/batch", batchBody)
		}
	})
	b.Run("sequential-64", func(b *testing.B) {
		h := benchServer(b, Options{}).Handler()
		for _, item := range items {
			post(b, h, "/select", item)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, item := range items {
				post(b, h, "/select", item)
			}
		}
	})
}
