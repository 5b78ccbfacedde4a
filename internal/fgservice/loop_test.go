package fgservice

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"freerideg/internal/core"
	"freerideg/internal/profile"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

// TestRunsEndpointClosesTheLoop drives the run → observe → recalibrate
// → predict loop over the wire: a server seeded with a 3×-mis-scaled
// kmeans profile receives observed runs via POST /runs until the store
// recalibrates, and /predict, /profiles, and /healthz all reflect the
// corrected, version-advanced profile.
func TestRunsEndpointClosesTheLoop(t *testing.T) {
	truthDoc, err := core.LoadStore(filepath.Join("testdata", "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.NewPredictorFromStore(truthDoc, "kmeans", AppModelLookup("kmeans"))
	if err != nil {
		t.Fatal(err)
	}
	staleDoc := truthDoc
	staleDoc.Profiles = append([]core.Profile(nil), truthDoc.Profiles...)
	p := &staleDoc.Profiles[0]
	p.Tdisk *= 3
	p.Tnetwork *= 3
	p.Tcompute *= 3
	p.Tro *= 3
	p.Tglobal *= 3
	store, err := profile.NewStore(staleDoc, profile.Options{Lookup: AppModelLookup, MinSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	heldOut := `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,` +
		`"computeNodes":4,"bandwidth":"100MB","datasetBytes":"768MB"}}`
	heldOutCfg := core.Config{Cluster: "pentium-myrinet", DataNodes: 1, ComputeNodes: 4,
		Bandwidth: 100 * units.MBPerSec, DatasetBytes: 768 * units.MB}
	exact, err := truth.Predict(heldOutCfg, core.GlobalReduction)
	if err != nil {
		t.Fatal(err)
	}
	predictErr := func() float64 {
		rec := postJSON(t, h, "/predict", heldOut)
		if rec.Code != http.StatusOK {
			t.Fatalf("/predict status %d: %s", rec.Code, rec.Body)
		}
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return stats.RelError(exact.Texec().Seconds(), resp.Texec.Seconds())
	}

	staleErr := predictErr()
	if staleErr < 0.5 {
		t.Fatalf("precondition: stale error %.3f is not badly mis-scaled", staleErr)
	}
	v0 := s.Store().Snapshot().Version()

	// Post observed runs: what the application actually does on each
	// configuration, per the truth predictor.
	recalibrated := false
	for i, mb := range []int{256, 384, 640, 896, 1024, 512} {
		cfg := core.Config{Cluster: "pentium-myrinet", DataNodes: 1, ComputeNodes: 1 + i%3,
			Bandwidth: 100 * units.MBPerSec, DatasetBytes: units.Bytes(mb) * units.MB}
		obs, err := truth.Predict(cfg, core.GlobalReduction)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"app":"kmeans","config":{"cluster":"pentium-myrinet",`+
			`"dataNodes":1,"computeNodes":%d,"bandwidth":"100MB","datasetBytes":"%dMB"},`+
			`"tdisk":"%v","tnetwork":"%v","tcompute":"%v","tro":"%v","tglobal":"%v"}`,
			cfg.ComputeNodes, mb, obs.Tdisk, obs.Tnetwork, obs.Tcompute, obs.Tro, obs.Tglobal)
		rec := postJSON(t, h, "/runs", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("/runs status %d: %s", rec.Code, rec.Body)
		}
		var res profile.IngestResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		recalibrated = recalibrated || res.Recalibrated
	}
	if !recalibrated {
		t.Fatal("posting mis-predicted runs never triggered a recalibration")
	}

	// GET /profiles reflects the advanced versions and consumed samples.
	rec := getPath(t, h, "/profiles")
	if rec.Code != http.StatusOK {
		t.Fatalf("/profiles status %d: %s", rec.Code, rec.Body)
	}
	var profiles ProfilesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &profiles); err != nil {
		t.Fatal(err)
	}
	if profiles.StoreVersion <= v0 {
		t.Fatalf("store version did not advance: %d -> %d", v0, profiles.StoreVersion)
	}
	if len(profiles.Profiles) != 1 {
		t.Fatalf("profiles = %+v, want exactly kmeans", profiles.Profiles)
	}
	info := profiles.Profiles[0]
	if info.App != "kmeans" || info.Version < 2 || info.Recalibrations < 1 {
		t.Fatalf("profile info after the loop: %+v", info)
	}
	if info.Samples != 6 {
		t.Fatalf("samples = %d, want 6", info.Samples)
	}

	// The recalibrated profile predicts the held-out configuration far
	// better than the stale one did.
	freshErr := predictErr()
	if freshErr >= staleErr {
		t.Fatalf("held-out error did not improve: %.3f -> %.3f", staleErr, freshErr)
	}
	if freshErr > 0.05 {
		t.Fatalf("post-recalibration held-out error %.3f, want < 0.05 (stale was %.3f)", freshErr, staleErr)
	}

	// /healthz carries the live store version.
	rec = getPath(t, h, "/healthz")
	var health HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.StoreVersion != profiles.StoreVersion {
		t.Fatalf("healthz store version %d != /profiles %d", health.StoreVersion, profiles.StoreVersion)
	}
}

// TestRunsEndpointRejectsBadInput pins the /runs input boundary.
func TestRunsEndpointRejectsBadInput(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	okCfg := `{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"}`
	cases := []struct{ name, body string }{
		{"missing app", `{"config":` + okCfg + `,"tdisk":"1s","tnetwork":"1s","tcompute":"1s"}`},
		{"missing component", `{"app":"kmeans","config":` + okCfg + `,"tdisk":"1s","tnetwork":"1s"}`},
		{"bad duration", `{"app":"kmeans","config":` + okCfg + `,"tdisk":"fast","tnetwork":"1s","tcompute":"1s"}`},
		{"negative component", `{"app":"kmeans","config":` + okCfg + `,"tdisk":"-1s","tnetwork":"1s","tcompute":"1s"}`},
		{"non-finite size", `{"app":"kmeans","config":` + okCfg + `,"tdisk":"1s","tnetwork":"1s","tcompute":"1s","roBytesPerNode":"inf"}`},
		{"invalid config", `{"app":"kmeans","config":{"cluster":"","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"},"tdisk":"1s","tnetwork":"1s","tcompute":"1s"}`},
		{"unknown field", `{"app":"kmeans","config":` + okCfg + `,"tdisk":"1s","tnetwork":"1s","tcompute":"1s","bogus":1}`},
	}
	for _, c := range cases {
		rec := postJSON(t, h, "/runs", c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, rec.Code, rec.Body)
		}
	}
}

// TestRunsAdoptsUnknownAppProfile checks that a posted run for an app
// the store has never seen becomes its base profile.
func TestRunsAdoptsUnknownAppProfile(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	body := `{"app":"apriori","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,` +
		`"bandwidth":"100MB","datasetBytes":"512MB"},"tdisk":"8s","tnetwork":"16s","tcompute":"40s",` +
		`"tro":"1s","tglobal":"500ms","roBytesPerNode":"1MB","broadcastBytes":"64KB","iterations":3}`
	rec := postJSON(t, h, "/runs", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/runs status %d: %s", rec.Code, rec.Body)
	}
	var res profile.IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Adopted || res.AppVersion != 1 {
		t.Fatalf("adoption result: %+v", res)
	}
	// The adopted profile serves /predict without simulation.
	pbody := `{"app":"apriori","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":2,` +
		`"bandwidth":"100MB","datasetBytes":"1GB"}}`
	if rec := postJSON(t, h, "/predict", pbody); rec.Code != http.StatusOK {
		t.Fatalf("/predict for adopted app: status %d: %s", rec.Code, rec.Body)
	}
}

// TestPredictorCacheFollowsRecalibration checks a /predict after a
// recalibration serves the new profile (the new snapshot memoises a new
// predictor; the old one is not reused).
func TestPredictorCacheFollowsRecalibration(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	body := `{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":2,` +
		`"bandwidth":"100MB","datasetBytes":"1GB"}}`
	before := predictTexec(t, h, body)

	// Halve the profile out from under the cache via direct ingestion
	// (auto-recalibration fires once the drift window fills; the explicit
	// call below is the backstop if it hasn't yet).
	v0 := s.Store().Snapshot().Version()
	doc := s.Store().Snapshot().Doc()
	base := doc.Profiles[0]
	for i := 0; i < profile.DefaultMinSamples; i++ {
		cfg := base.Config
		cfg.DatasetBytes += units.Bytes(i+1) * units.MB
		scale := 0.5 * float64(cfg.DatasetBytes) / float64(base.Config.DatasetBytes)
		obs := profile.Observation{
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
		if _, err := s.Store().Ingest(obs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Store().Recalibrate("kmeans"); err != nil {
		t.Fatal(err)
	}
	if v := s.Store().Snapshot().Version(); v <= v0 {
		t.Fatalf("no recalibration happened: store version still %d", v)
	}
	after := predictTexec(t, h, body)
	if after >= before {
		t.Fatalf("prediction did not follow the recalibrated profile: %v -> %v", before, after)
	}
}

func predictTexec(t *testing.T, h http.Handler, body string) time.Duration {
	t.Helper()
	rec := postJSON(t, h, "/predict", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/predict status %d: %s", rec.Code, rec.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Texec
}

// TestSelectFollowsCrossAppLinkChange is the serve-level regression test
// for the stale profile.Source: link calibrations are store-wide, so
// when app A's samples refit a cluster's link, app B's /select must rank
// with the new calibration in the same breath as B's /predict — the two
// stamp the same storeVersion and must agree on the same configuration.
func TestSelectFollowsCrossAppLinkChange(t *testing.T) {
	s, err := New(Options{Store: testStore(t), BaseBytes: 8 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// topAndPredict returns B's best /select candidate and the /predict
	// answer for exactly that configuration.
	topAndPredict := func() (SelectResponse, PredictResponse) {
		t.Helper()
		rec := postJSON(t, h, "/select", `{"app":"em","size":"64MB"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("/select status %d: %s", rec.Code, rec.Body)
		}
		var sel SelectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sel); err != nil {
			t.Fatal(err)
		}
		top := sel.Candidates[0]
		pred := predictResponseOf(t, h, fmt.Sprintf(
			`{"app":"em","config":{"cluster":%q,"dataNodes":%d,"computeNodes":%d,"bandwidth":"%d","datasetBytes":"%d"}}`,
			top.Cluster, top.DataNodes, top.ComputeNodes, int64(top.Bandwidth), int64(sel.Size)))
		return sel, pred
	}

	sel0, pred0 := topAndPredict() // B = em self-profiles here
	if sel0.Candidates[0].Predicted != pred0.Texec {
		t.Fatalf("before the link change /select top predicts %v, /predict %v",
			sel0.Candidates[0].Predicted, pred0.Texec)
	}
	_, emVer, _ := s.Store().Snapshot().Find("em")

	// A = kmeans: multi-node runs whose serialized reduction-object
	// traffic took 10x what the stored link explains, over two distinct
	// message sizes — enough for the recalibration's link refit.
	base := s.Store().Snapshot().Doc().Profiles[0]
	for i := 0; i < profile.DefaultMinSamples+1; i++ {
		obs := profileObservation(base, base.Config, 1)
		obs.Config.ComputeNodes = 2 + i%3
		obs.Iterations = base.Iterations
		obs.ROBytesPerNode = units.Bytes(1+i%2) * units.MB
		obs.BroadcastBytes = obs.ROBytesPerNode
		obs.Tro = 10 * time.Duration(obs.Iterations*(obs.Config.ComputeNodes-1)*2) *
			time.Duration(float64(obs.ROBytesPerNode)*1e-8*float64(time.Second))
		if _, err := s.Store().Ingest(obs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Store().Recalibrate("kmeans"); err != nil {
		t.Fatal(err)
	}
	if _, v, _ := s.Store().Snapshot().Find("em"); v != emVer {
		t.Fatalf("em's own version moved %d -> %d; the test needs a change em did not cause", emVer, v)
	}

	sel1, pred1 := topAndPredict()
	if sel1.StoreVersion <= sel0.StoreVersion || sel1.StoreVersion != pred1.StoreVersion {
		t.Fatalf("store versions: /select %d -> %d, /predict %d", sel0.StoreVersion, sel1.StoreVersion, pred1.StoreVersion)
	}
	if pred1.Tro == pred0.Tro {
		t.Fatalf("the refit link did not reach em's /predict (Tro still %v); the test lost its premise", pred1.Tro)
	}
	if got, want := sel1.Candidates[0].Predicted, pred1.Texec; got != want {
		t.Fatalf("after kmeans refit the link, em's /select top predicts %v but /predict %v for the same configuration at store version %d",
			got, want, sel1.StoreVersion)
	}
}
