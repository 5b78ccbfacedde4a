package profile

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"freerideg/internal/core"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

// heldOut is a configuration none of the calibration samples use.
func heldOut() core.Config {
	cfg := truthProfile().Config
	cfg.DatasetBytes = 400 * units.MB
	cfg.ComputeNodes = 4
	return cfg
}

// predictionError predicts the held-out configuration from the store's
// current snapshot and reports the relative error against the truth.
func predictionError(t *testing.T, snap *Snapshot) float64 {
	t.Helper()
	exact, err := truthPredictor(t).Predict(heldOut(), core.GlobalReduction)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := snap.Predictor("kmeans", core.AppModel{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pred.Predict(heldOut(), core.GlobalReduction)
	if err != nil {
		t.Fatal(err)
	}
	return stats.RelError(exact.Texec().Seconds(), got.Texec().Seconds())
}

// TestClosedLoopRecalibrationImprovesPrediction is the end-to-end loop:
// a store seeded with a 3×-mis-scaled profile ingests observed runs,
// the drift window flags the model, auto-recalibration refits it, and
// the held-out prediction error collapses.
func TestClosedLoopRecalibrationImprovesPrediction(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{MinSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	stale := s.Snapshot()
	staleErr := predictionError(t, stale)
	if staleErr < 0.5 {
		t.Fatalf("precondition: stale profile error %.3f is not badly mis-scaled", staleErr)
	}

	var recalibrated bool
	for _, cfg := range sampleConfigs() {
		res, err := s.Ingest(observeTruth(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if res.Drifting && res.DriftSamples >= 4 && !res.Recalibrated && !recalibrated {
			t.Errorf("drifting with %d pending samples but no recalibration: %+v", res.Pending, res)
		}
		recalibrated = recalibrated || res.Recalibrated
	}
	if !recalibrated {
		t.Fatal("ingesting mis-predicted runs never triggered a recalibration")
	}

	fresh := s.Snapshot()
	if fresh.Version() <= stale.Version() {
		t.Fatalf("store version did not advance: %d -> %d", stale.Version(), fresh.Version())
	}
	if _, v, _ := fresh.Find("kmeans"); v < 2 {
		t.Fatalf("app version did not advance: %d", v)
	}
	freshErr := predictionError(t, fresh)
	if freshErr >= staleErr {
		t.Fatalf("recalibration did not improve held-out error: %.3f -> %.3f", staleErr, freshErr)
	}
	if freshErr > 0.05 {
		t.Fatalf("post-recalibration held-out error %.3f, want < 0.05 (stale was %.3f)", freshErr, staleErr)
	}

	st, ok := fresh.Status("kmeans")
	if !ok || st.Recalibrations < 1 {
		t.Fatalf("status after the loop: %+v ok=%v", st, ok)
	}
	if st.Drifting {
		t.Fatalf("drift flag not cleared by recalibration: %+v", st)
	}
}

// TestConcurrentIngestAndPredict hammers one store with concurrent
// ingestion, snapshot prediction, status reads, and explicit
// recalibrations. It exists to fail under -race.
func TestConcurrentIngestAndPredict(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{MinSamples: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := sampleConfigs()
	obs := make([]Observation, len(cfgs))
	for i, cfg := range cfgs {
		obs[i] = observeTruth(t, cfg)
	}

	const writers, readers, rounds = 4, 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				o := obs[(w+i)%len(obs)]
				if w%2 == 1 {
					// Half the writers also adopt fresh apps.
					o.App = fmt.Sprintf("adopted-%d", w)
				}
				if _, err := s.Ingest(o); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				if i%10 == 9 {
					if _, err := s.Recalibrate("kmeans"); err != nil {
						t.Errorf("recalibrate: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap := s.Snapshot()
				pred, err := snap.Predictor("kmeans", core.AppModel{})
				if err != nil {
					t.Errorf("predictor: %v", err)
					return
				}
				if _, err := pred.Predict(heldOut(), core.GlobalReduction); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				snap.Status("kmeans")
				snap.Apps()
			}
		}()
	}
	wg.Wait()

	snap := s.Snapshot()
	st, ok := snap.Status("kmeans")
	if !ok {
		t.Fatal("kmeans status missing after concurrent load")
	}
	if want := writers / 2 * rounds; st.Samples != want {
		t.Fatalf("kmeans samples = %d, want %d", st.Samples, want)
	}
	for w := 1; w < writers; w += 2 {
		if _, _, ok := snap.Find(fmt.Sprintf("adopted-%d", w)); !ok {
			t.Fatalf("adopted-%d missing after concurrent load", w)
		}
	}
}

// TestSourceTracksStoreVersion checks the selector-facing predictor
// source rebuilds only when the store's content version moves.
func TestSourceTracksStoreVersion(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{MinSamples: 3, DisableAutoRecalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	src := s.NewSource("kmeans", core.AppModel{})
	p1, err := src.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := src.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("source rebuilt the predictor without a version change")
	}
	for _, cfg := range sampleConfigs()[:3] {
		if _, err := s.Ingest(observeTruth(t, cfg)); err != nil {
			t.Fatal(err)
		}
	}
	if changed, err := s.Recalibrate("kmeans"); err != nil || !changed {
		t.Fatalf("recalibration changed=%v err=%v", changed, err)
	}
	p3, err := src.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("source kept serving the stale predictor after recalibration")
	}
	if p3.Profile.Tdisk == p1.Profile.Tdisk {
		t.Fatal("rebuilt predictor still carries the stale profile")
	}

	if _, err := s.NewSource("nope", core.AppModel{}).Predictor(); err == nil {
		t.Fatal("source resolved a predictor for an unknown app")
	}
}

// TestSourceFollowsSharedCalibration is the regression test for the
// stale-predictor bug: link calibrations are store-wide and copied into
// every app's predictor, so a link change must reach a Source whose own
// app's version did not move.
func TestSourceFollowsSharedCalibration(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{DisableAutoRecalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	src := s.NewSource("kmeans", core.AppModel{})
	before, err := src.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	_, appVer, _ := s.Snapshot().Find("kmeans")
	link := core.LinkCalibration{W: 2e-8, L: 3 * time.Millisecond}
	s.SeedLinks(map[string]core.LinkCalibration{"some-cluster": link})
	if _, v, _ := s.Snapshot().Find("kmeans"); v != appVer {
		t.Fatalf("SeedLinks moved the app version %d -> %d; the test needs it to stand still", appVer, v)
	}
	after, err := src.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("source kept serving the pre-SeedLinks predictor")
	}
	if got := after.Links["some-cluster"]; got != link {
		t.Fatalf("source predictor link = %+v, want %+v", got, link)
	}
	want, err := s.Snapshot().Predictor("kmeans", core.AppModel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Links) != len(want.Links) {
		t.Fatalf("source predictor has %d links, snapshot predictor %d", len(after.Links), len(want.Links))
	}
}

// TestSharedPredictorFollowsContent pins the memo's pointer identity,
// the rank engine's recompute signal: an ingest that does not
// recalibrate keeps Shared and Source.Predictor on one pointer, every
// content change (SeedLinks, Recalibrate, Reload) moves it, and
// Snapshot.Predictor never hands out the shared one.
func TestSharedPredictorFollowsContent(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "profiles.json"), staleDoc(),
		Options{MinSamples: 3, DisableAutoRecalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	m := core.AppModel{RO: core.ROLinear}
	src := s.NewSource("kmeans", m)
	shared := func() *core.Predictor {
		t.Helper()
		p, err := s.Snapshot().Shared("kmeans", m)
		if err != nil {
			t.Fatal(err)
		}
		if q, err := src.Predictor(); err != nil || q != p {
			t.Fatalf("Source.Predictor = %p (%v), Snapshot.Shared = %p", q, err, p)
		}
		if q, err := s.Snapshot().Predictor("kmeans", m); err != nil || q == p {
			t.Fatalf("Snapshot.Predictor returned the shared pointer (err %v)", err)
		}
		return p
	}
	p := shared()
	if q, _ := s.Snapshot().Shared("kmeans", core.AppModel{}); q == p {
		t.Fatal("two models share one predictor")
	}

	for _, cfg := range sampleConfigs()[:3] {
		if _, err := s.Ingest(observeTruth(t, cfg)); err != nil {
			t.Fatal(err)
		}
		if q := shared(); q != p {
			t.Fatal("an ingest that did not recalibrate moved the shared predictor")
		}
	}
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"SeedLinks", func() error {
			s.SeedLinks(map[string]core.LinkCalibration{"some-cluster": {W: 2e-8, L: time.Millisecond}})
			return nil
		}},
		{"Recalibrate", func() error {
			changed, err := s.Recalibrate("kmeans")
			if err == nil && !changed {
				err = errors.New("nothing changed")
			}
			return err
		}},
		{"Reload", s.Reload},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		q := shared()
		if q == p {
			t.Fatalf("%s kept the shared predictor", step.name)
		}
		p = q
	}
}
