package fgservice

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freerideg/internal/core"
	"freerideg/internal/metrics"
	"freerideg/internal/profile"
	"freerideg/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testStore loads the checked-in profile store so handler tests exercise
// pure prediction arithmetic — no simulation, so goldens don't rot when
// the simulator changes.
func testStore(t *testing.T) *profile.Store {
	t.Helper()
	store, err := profile.Open(filepath.Join("testdata", "store.json"), profile.Options{Lookup: AppModelLookup})
	if err != nil {
		t.Fatalf("loading test store: %v", err)
	}
	return store
}

func testServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Options{Store: testStore(t)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// handleSelectBatch drives the /select/batch endpoint function with
// nothing of the route pipeline around it — no limiter, deadline, trace
// or metrics — for tests that observe the function's own completion. It
// writes the positional response even when the batch was cut short (over
// HTTP endpoint answers the 499/504 envelope instead), so those tests
// see which items ran.
func (s *Server) handleSelectBatch(w http.ResponseWriter, r *http.Request) {
	var req SelectBatchRequest
	if err := decodeJSON(r.Context(), w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, _ := batchOf(s, s.selectReplica)(r.Context(), &req)
	writeJSON(w, http.StatusOK, &resp)
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestPredictGolden(t *testing.T) {
	s := testServer(t)
	body := `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":4,` +
		`"computeNodes":8,"bandwidth":"100MB","datasetBytes":"1.4GB"}}`
	rec := postJSON(t, s.Handler(), "/predict", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/predict status %d: %s", rec.Code, rec.Body)
	}
	checkGolden(t, "predict.golden.json", rec.Body.Bytes())
}

func TestPredictVariantsDiffer(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	seen := make(map[time.Duration]string)
	for _, variant := range []string{"nocomm", "reduction", "global"} {
		body := fmt.Sprintf(`{"app":"kmeans","variant":%q,"config":{"cluster":"pentium-myrinet",`+
			`"dataNodes":2,"computeNodes":4,"bandwidth":"50MB","datasetBytes":"1GB"}}`, variant)
		rec := postJSON(t, h, "/predict", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("variant %s: status %d: %s", variant, rec.Code, rec.Body)
		}
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Texec <= 0 {
			t.Fatalf("variant %s: non-positive T_exec %v", variant, resp.Texec)
		}
		if resp.Texec != resp.Tdisk+resp.Tnetwork+resp.Tcompute {
			t.Fatalf("variant %s: components do not sum to T_exec", variant)
		}
		// The three variants model different communication costs, so at a
		// non-base configuration they must not collapse to one value.
		if other, dup := seen[resp.Texec]; dup {
			t.Fatalf("variants %s and %s predict identical T_exec %v", other, variant, resp.Texec)
		}
		seen[resp.Texec] = variant
	}
}

func TestSelectGolden(t *testing.T) {
	s := testServer(t)
	rec := postJSON(t, s.Handler(), "/select", `{"app":"kmeans","size":"512MB"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("/select status %d: %s", rec.Code, rec.Body)
	}
	var resp SelectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Two replicas (4 and 8 storage nodes) against offers of 4/8/16
	// compute nodes, with the middleware's M >= N rule: 3 + 2 candidates.
	if len(resp.Candidates) != 5 {
		t.Fatalf("got %d candidates, want 5: %s", len(resp.Candidates), rec.Body)
	}
	for i := 1; i < len(resp.Candidates); i++ {
		if resp.Candidates[i].Predicted < resp.Candidates[i-1].Predicted {
			t.Fatal("candidates not sorted by predicted time")
		}
	}
	checkGolden(t, "select.golden.json", rec.Body.Bytes())
}

func TestSelectDeadlinePlansCheapestFeasible(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	// An absurdly generous deadline must pick some candidate (the
	// cheapest), and an impossible one must 422.
	rec := postJSON(t, h, "/select", `{"app":"kmeans","size":"512MB","deadline":"100h"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("generous deadline: status %d: %s", rec.Code, rec.Body)
	}
	var resp SelectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Selected == nil {
		t.Fatal("no candidate selected under generous deadline")
	}
	rec = postJSON(t, h, "/select", `{"app":"kmeans","size":"512MB","deadline":"1ns"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("impossible deadline: status %d, want 422: %s", rec.Code, rec.Body)
	}
}

func TestObserveUpdatesSelectionBandwidth(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	baseline := selectTopBandwidth(t, h)
	// Feed transfers showing the osu-repository path at ~5MB/s, far below
	// its static 100MB/s: the live b̂ must change what /select reports.
	for i := 1; i <= 6; i++ {
		body := fmt.Sprintf(`{"site":"osu-repository","cluster":"pentium-myrinet",`+
			`"bytes":"%dMB","elapsed":"%dms"}`, 5*i, 1000*i)
		rec := postJSON(t, h, "/observe", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("/observe status %d: %s", rec.Code, rec.Body)
		}
	}
	var last ObserveResponse
	rec := postJSON(t, h, "/observe", `{"site":"osu-repository","cluster":"pentium-myrinet","bytes":"35MB","elapsed":"7s"}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &last); err != nil {
		t.Fatal(err)
	}
	if last.Samples != 7 {
		t.Fatalf("samples = %d, want 7", last.Samples)
	}
	if last.Bandwidth == "" {
		t.Fatal("no bandwidth estimate after 7 samples")
	}
	degraded := selectTopBandwidth(t, h)
	if degraded["osu-repository"] == baseline["osu-repository"] {
		t.Fatalf("osu-repository bandwidth unchanged by observations: %v", degraded)
	}
}

// selectTopBandwidth maps site -> bandwidth from a /select ranking.
func selectTopBandwidth(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := postJSON(t, h, "/select", `{"app":"kmeans","size":"512MB"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("/select status %d: %s", rec.Code, rec.Body)
	}
	var resp SelectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, c := range resp.Candidates {
		out[c.Site] = float64(c.Bandwidth)
	}
	return out
}

func TestInputBoundaryRejectsNonFiniteSizes(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	cases := []struct{ path, body string }{
		{"/predict", `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"inf"}}`},
		{"/predict", `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"nan","datasetBytes":"512MB"}}`},
		{"/predict", `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"1e300GB"}}`},
		{"/select", `{"app":"kmeans","size":"inf"}`},
		{"/select", `{"app":"kmeans","size":"nan"}`},
		{"/select", `{"app":"kmeans","size":"1e300GB"}`},
		{"/observe", `{"site":"s","cluster":"c","bytes":"inf","elapsed":"1s"}`},
	}
	for _, c := range cases {
		rec := postJSON(t, h, c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s with %s: status %d, want 400 (%s)", c.path, c.body, rec.Code, rec.Body)
		}
	}
}

func TestHandlerErrors(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
	}{
		{"unknown app", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/predict", `{"app":"nope","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"}}`)
		}, http.StatusNotFound},
		{"invalid config", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/predict", `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":8,"computeNodes":2,"bandwidth":"100MB","datasetBytes":"512MB"}}`)
		}, http.StatusBadRequest},
		{"unknown variant", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/predict", `{"app":"kmeans","variant":"psychic","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"}}`)
		}, http.StatusBadRequest},
		{"malformed JSON", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/predict", `{"app":`)
		}, http.StatusBadRequest},
		{"unknown field", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/select", `{"app":"kmeans","size":"512MB","bogus":1}`)
		}, http.StatusBadRequest},
		{"GET on POST endpoint", func() *httptest.ResponseRecorder {
			return getPath(t, h, "/predict")
		}, http.StatusMethodNotAllowed},
		{"bad deadline", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/select", `{"app":"kmeans","size":"512MB","deadline":"-2s"}`)
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := c.do()
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body)
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not a JSON envelope: %s", c.name, rec.Body)
		}
	}
}

// TestHealthz: profiledApps counts the store's profiles, so a
// self-profiled app shows up once adopted, alongside the version that
// adopted it.
func TestHealthz(t *testing.T) {
	s, err := New(Options{Store: testStore(t), BaseBytes: 8 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	health := func() HealthResponse {
		t.Helper()
		rec := getPath(t, h, "/healthz")
		if rec.Code != http.StatusOK {
			t.Fatalf("/healthz status %d", rec.Code)
		}
		var resp HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != "ok" || len(resp.Apps) == 0 {
			t.Fatalf("unexpected health response: %+v", resp)
		}
		return resp
	}
	before := health()
	if before.ProfiledApps != 1 {
		t.Fatalf("profiledApps = %d on the kmeans-only store, want 1", before.ProfiledApps)
	}
	body := `{"app":"em","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"64MB"}}`
	adopted := predictResponseOf(t, h, body)
	after := health()
	if after.ProfiledApps != 2 || after.StoreVersion != adopted.StoreVersion {
		t.Fatalf("after self-profiling em: profiledApps %d at store version %d, want 2 at %d",
			after.ProfiledApps, after.StoreVersion, adopted.StoreVersion)
	}
}

// TestConcurrentFirstRequestsProfileOnce: "em" is not in the test
// store, so a burst of first requests for it all self-profile at once,
// some under a client deadline too short to wait for the run. The
// harness memo must merge them into one simulation, and the store must
// adopt em exactly once: one sample, app version 1, and one store
// version step, however many of the merged runs reach the store.
func TestConcurrentFirstRequestsProfileOnce(t *testing.T) {
	s, err := New(Options{Store: testStore(t), BaseBytes: 8 * units.MB, MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	v0 := s.Store().Snapshot().Version()
	// The first simulation is held until the twelve deadline-free requests
	// have joined it through the memo, so they all find em unknown.
	hits := metrics.GetCounter("fg_sim_cache_hits_total", "")
	h0 := hits.Value()
	release := make(chan struct{})
	var sims atomic.Int32
	s.harness.SetObserver(func(core.Profile) {
		sims.Add(1)
		<-release
	})
	bodies := []struct{ path, body string }{
		{"/predict", `{"app":"em","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":2,` +
			`"bandwidth":"100MB","datasetBytes":"64MB"}}`},
		{"/select", `{"app":"em","size":"64MB"}`},
	}
	var wg sync.WaitGroup
	for i := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if i%4 == 3 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
				defer cancel()
			}
			op := bodies[i%2]
			rec := postJSONCtx(ctx, h, op.path, op.body)
			switch {
			case rec.Code == http.StatusOK:
			case i%4 == 3 && (rec.Code == StatusClientClosedRequest || rec.Code == http.StatusGatewayTimeout):
			default:
				t.Errorf("request %d %s: status %d: %s", i, op.path, rec.Code, rec.Body)
			}
		}()
	}
	for end := time.Now().Add(10 * time.Second); hits.Value() < h0+11; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			close(release)
			wg.Wait()
			t.Fatalf("only %v requests joined the held self-profiling run, want 11", hits.Value()-h0)
		}
	}
	close(release)
	wg.Wait()

	if got := sims.Load(); got != 1 {
		t.Fatalf("%d simulations for one app's first requests, want 1", got)
	}
	if v := s.Store().Snapshot().Version(); v != v0+1 {
		t.Errorf("store version %d -> %d, want one step", v0, v)
	}
	rec := getPath(t, h, "/profiles")
	var profiles ProfilesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &profiles); err != nil {
		t.Fatalf("/profiles: %v: %s", err, rec.Body)
	}
	for _, info := range profiles.Profiles {
		if info.App == "em" {
			if info.Samples != 1 || info.Version != 1 {
				t.Errorf("em adopted at samples %d, version %d; want 1 and 1", info.Samples, info.Version)
			}
			return
		}
	}
	t.Fatalf("/profiles lacks em: %s", rec.Body)
}

func TestMetricsEndpointCountsRequests(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	before := metrics.GetCounter("fg_http_requests_total",
		"HTTP requests handled, by endpoint.", metrics.Label{Key: "path", Value: "/predict"}).Value()
	body := `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":2,"bandwidth":"100MB","datasetBytes":"512MB"}}`
	for i := 0; i < 3; i++ {
		if rec := postJSON(t, h, "/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("/predict status %d: %s", rec.Code, rec.Body)
		}
	}
	rec := getPath(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	out := rec.Body.String()
	if !strings.Contains(out, `fg_http_requests_total{path="/predict"}`) {
		t.Fatalf("/metrics missing per-endpoint request counter:\n%s", out)
	}
	after := metrics.GetCounter("fg_http_requests_total",
		"HTTP requests handled, by endpoint.", metrics.Label{Key: "path", Value: "/predict"}).Value()
	if after < before+3 {
		t.Fatalf("request counter moved %v -> %v, want +3", before, after)
	}
}

// TestConcurrentLoadSmoke hammers the service from many goroutines; run
// under -race (make check does) this is the data-race gate for the
// shared harness, estimator, and the snapshots' memoised predictors.
func TestConcurrentLoadSmoke(t *testing.T) {
	const workers, perWorker = 8, 12
	// Explicit bound >= workers: on a small machine the 4x GOMAXPROCS
	// default could legitimately shed this load with 503s.
	s, err := New(Options{Store: testStore(t), MaxInFlight: 2 * workers})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var rec *httptest.ResponseRecorder
				switch i % 4 {
				case 0:
					rec = postJSON(t, h, "/predict", fmt.Sprintf(
						`{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":%d,"computeNodes":%d,"bandwidth":"100MB","datasetBytes":"1GB"}}`,
						1+w%4, 4+w%4))
				case 1:
					rec = postJSON(t, h, "/select", `{"app":"kmeans","size":"512MB"}`)
				case 2:
					rec = postJSON(t, h, "/observe", fmt.Sprintf(
						`{"site":"remote-mirror","cluster":"pentium-myrinet","bytes":"%dMB","elapsed":"%dms"}`,
						8+i, 300+10*i+w))
				case 3:
					rec = getPath(t, h, "/healthz")
				}
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("worker %d req %d: status %d: %s", w, i, rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestThrottlingShedsLoad pins the bounded-concurrency middleware: with
// one slot and a slow handler, a second concurrent request gets 503.
func TestThrottlingShedsLoad(t *testing.T) {
	s, err := New(Options{Store: testStore(t), MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.delay = 200 * time.Millisecond
	h := s.Handler()
	body := `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"}}`
	first := make(chan int, 1)
	go func() {
		first <- postJSON(t, h, "/predict", body).Code
	}()
	time.Sleep(50 * time.Millisecond) // let the first request occupy the slot
	if code := postJSON(t, h, "/predict", body).Code; code != http.StatusServiceUnavailable {
		t.Fatalf("second concurrent request: status %d, want 503", code)
	}
	// /healthz bypasses the bound (it must answer under load) but reports
	// the saturation as degraded state, so load tests can tell shedding
	// from failure.
	rec := getPath(t, h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz under saturation: status %d, want 503 degraded (%s)", rec.Code, rec.Body)
	}
	var health HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || !strings.Contains(health.Reason, "overloaded") {
		t.Fatalf("saturated health = %+v, want degraded/overloaded", health)
	}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", code)
	}
	// With the slot free again, health must recover to ok/200.
	if code := getPath(t, h, "/healthz").Code; code != http.StatusOK {
		t.Fatalf("/healthz after load drained: status %d, want 200", code)
	}
}

// TestRequestRunsOnCallerGoroutine pins the synchronous pipeline: while
// a request is parked inside it (in the test delay), the process holds
// exactly one goroutine more than before — the caller's own. No handler
// goroutine is spawned per request.
func TestRequestRunsOnCallerGoroutine(t *testing.T) {
	s, err := New(Options{Store: testStore(t), MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.delay = 30 * time.Second
	h := s.Handler()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int, 1)
	go func() { done <- postJSONCtx(ctx, h, "/predict", goodPredict).Code }()
	waitFor(t, time.Second, func() bool { return s.lim.saturated() })
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Errorf("%d goroutines while one request is parked in the pipeline, %d before it: want at most one more (the caller)", got, before)
	}
	cancel()
	if code := <-done; code != StatusClientClosedRequest {
		t.Fatalf("canceled request: status %d, want 499", code)
	}
}

// TestHealthzReportsDraining pins the drain half of the degraded state.
func TestHealthzReportsDraining(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	if code := getPath(t, h, "/healthz").Code; code != http.StatusOK {
		t.Fatalf("fresh server /healthz: %d", code)
	}
	s.StartDrain()
	rec := getPath(t, h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz: status %d, want 503", rec.Code)
	}
	var health HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || !strings.Contains(health.Reason, "draining") {
		t.Fatalf("draining health = %+v", health)
	}
	// Draining sheds only new health probes, not requests already allowed
	// in: /predict still answers.
	body := `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"}}`
	if code := postJSON(t, h, "/predict", body).Code; code != http.StatusOK {
		t.Fatalf("/predict while draining: status %d, want 200", code)
	}
}

// TestGracefulShutdownCompletesInFlight proves http.Server.Shutdown
// drains a request already being handled instead of killing it.
func TestGracefulShutdownCompletesInFlight(t *testing.T) {
	s := testServer(t)
	s.delay = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	type result struct {
		status int
		body   string
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		body := `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"}}`
		resp, err := http.Post("http://"+ln.Addr().String()+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: string(out)}
	}()

	time.Sleep(100 * time.Millisecond) // request is now in the handler's delay
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", res.err)
	}
	if res.status != http.StatusOK || !strings.Contains(res.body, "texecNs") {
		t.Fatalf("in-flight request: status %d body %s", res.status, res.body)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// New connections must be refused after shutdown.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}
