package fgservice

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"freerideg/internal/core"
	"freerideg/internal/metrics"
	"freerideg/internal/profile"
	"freerideg/internal/servecache"
	"freerideg/internal/units"
)

const cachedPredictBody = `{"app":"kmeans","config":{"cluster":"pentium-myrinet",` +
	`"dataNodes":1,"computeNodes":2,"bandwidth":"100MB","datasetBytes":"1GB"}}`

func cacheCounter(t *testing.T, name, cache string) *metrics.Counter {
	t.Helper()
	return metrics.GetCounter(name, "", metrics.Label{Key: "cache", Value: cache})
}

// TestRecalibrationVisibleInNextPredict is the /predict coherence check:
// nothing sits between the endpoint and the versioned predictor, so the
// very next read after a recalibration carries the new store version
// and the new values — never the pre-recalibration answer.
func TestRecalibrationVisibleInNextPredict(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	before := predictResponseOf(t, h, cachedPredictBody)
	if again := predictResponseOf(t, h, cachedPredictBody); again != before {
		t.Fatalf("unstable prediction before recalibration:\n%+v\nvs\n%+v", again, before)
	}

	halveProfile(t, s)

	after := predictResponseOf(t, h, cachedPredictBody)
	if after.StoreVersion <= before.StoreVersion {
		t.Fatalf("store version did not advance across recalibration: %d -> %d",
			before.StoreVersion, after.StoreVersion)
	}
	if after.Texec == before.Texec || after.Tcompute == before.Tcompute {
		t.Fatalf("post-recalibration read returned the pre-recalibration prediction (%v)", after.Texec)
	}
}

// TestSelfProfiledAnswerStampsItsSnapshot: the test store holds only
// kmeans, so the first read for em self-profiles it and adopts the
// profile, moving the store version. The answer must carry the version
// whose snapshot holds the adopted em, and every value must be what a
// fresh predictor of that snapshot gives — not a version stamped before
// the adoption on values computed after it.
func TestSelfProfiledAnswerStampsItsSnapshot(t *testing.T) {
	sel := `{"app":"em","size":"64MB"}`
	for _, tc := range []struct{ path, body string }{
		{"/select", sel},
		{"/select/batch", `{"items":[` + sel + `,` + sel + `]}`},
		{"/predict", `{"app":"em","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":2,` +
			`"bandwidth":"100MB","datasetBytes":"64MB"}}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			s, err := New(Options{Store: testStore(t), BaseBytes: 8 * units.MB})
			if err != nil {
				t.Fatal(err)
			}
			rec := postJSON(t, s.Handler(), tc.path, tc.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s status %d: %s", tc.path, rec.Code, rec.Body)
			}
			snap := s.Store().Snapshot()
			if _, _, ok := snap.Find("em"); !ok {
				t.Fatal("em was not adopted")
			}
			pred, err := snap.Predictor("em", AppModelLookup("em"))
			if err != nil {
				t.Fatal(err)
			}
			var vers []uint64
			if tc.path == "/predict" {
				for _, got := range servedAnswers[PredictResponse](t, tc.path, rec.Body.Bytes()) {
					want, err := pred.Predict(got.Config, core.GlobalReduction)
					if err != nil {
						t.Fatal(err)
					}
					if got.Tdisk != want.Tdisk || got.Tnetwork != want.Tnetwork || got.Tcompute != want.Tcompute ||
						got.Texec != want.Texec() {
						t.Errorf("/predict served %v/%v/%v, store version %d predicts %v/%v/%v", got.Tdisk, got.Tnetwork,
							got.Tcompute, snap.Version(), want.Tdisk, want.Tnetwork, want.Tcompute)
					}
					vers = append(vers, got.StoreVersion)
				}
			} else {
				for _, a := range servedAnswers[SelectResponse](t, tc.path, rec.Body.Bytes()) {
					checkRanking(t, tc.path, pred, core.GlobalReduction, a)
					vers = append(vers, a.StoreVersion)
				}
			}
			for _, v := range vers {
				if v != snap.Version() {
					t.Errorf("%s stamped store version %d; em was adopted at %d", tc.path, v, snap.Version())
				}
			}
		})
	}
}

// TestObserveInvalidatesSelectCache: selection answers depend on the
// live bandwidth estimator, so an accepted /observe must stop cached
// rankings from being served.
func TestObserveInvalidatesSelectCache(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	body := `{"app":"kmeans","size":"512MB"}`

	first := postJSON(t, h, "/select", body)
	if first.Code != http.StatusOK {
		t.Fatalf("/select status %d: %s", first.Code, first.Body)
	}
	// Enough observations to move the osu-repository b̂ from its static
	// 100MB/s to ~5MB/s.
	for i := 1; i <= 7; i++ {
		ob := fmt.Sprintf(`{"site":"osu-repository","cluster":"pentium-myrinet",`+
			`"bytes":"%dMB","elapsed":"%dms"}`, 5*i, 1000*i)
		if rec := postJSON(t, h, "/observe", ob); rec.Code != http.StatusOK {
			t.Fatalf("/observe status %d: %s", rec.Code, rec.Body)
		}
	}
	second := postJSON(t, h, "/select", body)
	if second.Code != http.StatusOK {
		t.Fatalf("/select status %d: %s", second.Code, second.Body)
	}
	if first.Body.String() == second.Body.String() {
		t.Fatal("observations did not invalidate the cached ranking")
	}
}

// TestSelectVersionIsThePair: the select cache's version identifies the
// exact (snapshot version, estimator epoch) pair — (1, 1) and (2, 0)
// stay apart — and a half past 32 bits turns the cache off for the
// request instead of spilling into the other half.
func TestSelectVersionIsThePair(t *testing.T) {
	a, okA := selectVersion(1, 1)
	b, okB := selectVersion(2, 0)
	if !okA || !okB || a == b {
		t.Fatalf("selectVersion(1, 1) = %d, %v; selectVersion(2, 0) = %d, %v", a, okA, b, okB)
	}
	for _, p := range [][2]uint64{{1 << 32, 0}, {0, 1 << 32}} {
		if v, ok := selectVersion(p[0], p[1]); ok {
			t.Errorf("selectVersion(%#x, %#x) = %#x, want not ok", p[0], p[1], v)
		}
	}

	s := testServer(t)
	s.estEpoch.Store(1 << 32)
	misses := cacheCounter(t, "fg_servecache_misses_total", "select")
	m0 := misses.Value()
	for range 2 {
		if _, err := s.selectReplica(context.Background(), &SelectRequest{App: "kmeans", Size: "512MB"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := misses.Value() - m0; got != 0 {
		t.Fatalf("select cache consulted with a 33-bit epoch: misses moved %v", got)
	}
}

// TestSelectLimitServedFromOneEntry: Limit is not part of the cache key —
// the full ranking is cached once and truncated per request.
func TestSelectLimitServedFromOneEntry(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	misses := cacheCounter(t, "fg_servecache_misses_total", "select")
	m0 := misses.Value()

	var lens []int
	for _, limit := range []int{0, 3, 1, 2} {
		body := `{"app":"kmeans","size":"512MB"}`
		if limit > 0 {
			body = fmt.Sprintf(`{"app":"kmeans","size":"512MB","limit":%d}`, limit)
		}
		rec := postJSON(t, h, "/select", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("limit %d: status %d: %s", limit, rec.Code, rec.Body)
		}
		var resp SelectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		lens = append(lens, len(resp.Candidates))
	}
	want := []int{5, 3, 1, 2}
	if fmt.Sprint(lens) != fmt.Sprint(want) {
		t.Fatalf("candidate counts = %v, want %v", lens, want)
	}
	if got := misses.Value() - m0; got != 1 {
		t.Fatalf("limited reads recomputed the ranking: misses moved %v, want 1", got)
	}
}

// TestDisableCacheRecomputes pins the reference path the differential
// tests compare against: with the cache off, /select recomputes every
// time, deterministically, and the cache counters never move.
func TestDisableCacheRecomputes(t *testing.T) {
	s, err := New(Options{Store: testStore(t), DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	hits := cacheCounter(t, "fg_servecache_hits_total", "select")
	misses := cacheCounter(t, "fg_servecache_misses_total", "select")
	h0, m0 := hits.Value(), misses.Value()
	body := `{"app":"kmeans","size":"512MB"}`
	first := postJSON(t, h, "/select", body)
	second := postJSON(t, h, "/select", body)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("statuses %d, %d", first.Code, second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("uncached recomputation is not deterministic")
	}
	if hits.Value() != h0 || misses.Value() != m0 {
		t.Fatal("cache counters moved with the cache disabled")
	}
	if p, sel := s.CacheStats(); p != (servecache.Stats{}) || sel != (servecache.Stats{}) {
		t.Fatalf("CacheStats with the cache disabled = %+v, %+v, want zero", p, sel)
	}
}

// TestCacheHitLatencyAdvantage is the ≥5× acceptance measurement at the
// service layer (no HTTP encode/decode noise): the median cached read
// must be at least 5× faster than the median read of the same request on
// a DisableCache server — the path the cache saves against.
func TestCacheHitLatencyAdvantage(t *testing.T) {
	s := testServer(t)
	ref, err := New(Options{Store: testStore(t), DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	req := &SelectRequest{App: "kmeans", Size: "512MB"}
	// Prime both: the cache entry and the reference server's rank tables.
	for _, srv := range []*Server{s, ref} {
		if _, err := srv.selectReplica(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 300
	median := func(f func()) time.Duration {
		ds := make([]time.Duration, iters)
		for i := range ds {
			start := time.Now()
			f()
			ds[i] = time.Since(start)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[iters/2]
	}
	warm := median(func() {
		if _, err := s.selectReplica(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	cold := median(func() {
		if _, err := ref.selectReplica(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("median select latency: warm %v, cold %v (%.1fx)", warm, cold, float64(cold)/float64(warm))
	if warm*5 > cold {
		t.Fatalf("cache hit not >=5x faster: warm %v, cold %v", warm, cold)
	}
}

// halveProfile ingests drifted observations and forces a recalibration
// that roughly halves the kmeans profile.
func halveProfile(t *testing.T, s *Server) {
	t.Helper()
	doc := s.Store().Snapshot().Doc()
	base := doc.Profiles[0]
	for i := 0; i < 5; i++ {
		cfg := base.Config
		cfg.DatasetBytes += units.Bytes(i+1) * units.MB
		scale := 0.5 * float64(cfg.DatasetBytes) / float64(base.Config.DatasetBytes)
		obs := profileObservation(base, cfg, scale)
		if _, err := s.Store().Ingest(obs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Store().Recalibrate(base.App); err != nil {
		t.Fatal(err)
	}
}

// profileObservation builds one observation of base's app on cfg with
// every component scaled by scale.
func profileObservation(base core.Profile, cfg core.Config, scale float64) profile.Observation {
	return profile.Observation{
		App:    base.App,
		Config: cfg,
		Breakdown: core.Breakdown{
			Tdisk:    time.Duration(float64(base.Tdisk) * scale),
			Tnetwork: time.Duration(float64(base.Tnetwork) * scale),
			Tcompute: time.Duration(float64(base.Tcompute) * scale),
		},
		Tro:     time.Duration(float64(base.Tro) * scale),
		Tglobal: time.Duration(float64(base.Tglobal) * scale),
	}
}

func profileStoreForBench(doc core.ProfileStore) (*profile.Store, error) {
	return profile.NewStore(doc, profile.Options{Lookup: AppModelLookup})
}

func predictResponseOf(t *testing.T, h http.Handler, body string) PredictResponse {
	t.Helper()
	rec := postJSON(t, h, "/predict", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/predict status %d: %s", rec.Code, rec.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// benchServer builds a server over the test store; opts.Store is
// overwritten.
func benchServer(b *testing.B, opts Options) *Server {
	b.Helper()
	doc, err := core.LoadStore("testdata/store.json")
	if err != nil {
		b.Fatal(err)
	}
	store, err := profileStoreForBench(doc)
	if err != nil {
		b.Fatal(err)
	}
	opts.Store = store
	s, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkPredict is the typed /predict function alone: validation,
// predictor lookup, arithmetic — no HTTP, no JSON.
func BenchmarkPredict(b *testing.B) {
	s := benchServer(b, Options{})
	req := &PredictRequest{App: "kmeans", Config: ConfigRequest{Cluster: "pentium-myrinet",
		DataNodes: 1, ComputeNodes: 2, Bandwidth: "100MB", DatasetBytes: "1GB"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.predict(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectWarm / BenchmarkSelectCold quantify the /select
// response cache: the typed function on a resident entry against the
// same function on a DisableCache server, the ranking path it skips.
func BenchmarkSelectWarm(b *testing.B) {
	s := benchServer(b, Options{})
	req := &SelectRequest{App: "kmeans", Size: "512MB"}
	if _, err := s.selectReplica(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.selectReplica(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectCold(b *testing.B) {
	s := benchServer(b, Options{DisableCache: true})
	req := &SelectRequest{App: "kmeans", Size: "512MB"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.selectReplica(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
