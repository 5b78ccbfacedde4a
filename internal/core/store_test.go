package core

import (
	"strings"
	"testing"
	"time"
)

func sampleStore() ProfileStore {
	return ProfileStore{
		Profiles: []Profile{baseProfile()},
		Links: map[string]LinkCalibration{
			"A": {W: 1e-8, L: 12 * time.Millisecond},
		},
		Scalings: map[string]Scaling{
			"B": {Disk: 0.4, Network: 0.9, Compute: 0.3},
		},
	}
}

func TestStoreValidation(t *testing.T) {
	if err := (ProfileStore{}).Validate(); err == nil {
		t.Error("empty store validated")
	}
	bad := sampleStore()
	bad.Profiles[0].Iterations = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid profile validated")
	}
}

func TestStoreValidateRejectsDuplicateApps(t *testing.T) {
	dup := sampleStore()
	second := dup.Profiles[0]
	second.Tdisk *= 2
	dup.Profiles = append(dup.Profiles, second)
	err := dup.Validate()
	if err == nil {
		t.Fatal("duplicate app entries validated")
	}
	if !strings.Contains(err.Error(), `"toy"`) {
		t.Errorf("error does not name the duplicated app: %v", err)
	}
	// Distinct apps stay valid.
	ok := sampleStore()
	other := ok.Profiles[0]
	other.App = "other"
	ok.Profiles = append(ok.Profiles, other)
	if err := ok.Validate(); err != nil {
		t.Fatalf("distinct apps rejected: %v", err)
	}
}

func TestNewPredictorFromStoreRejectsInvalidProfile(t *testing.T) {
	s := sampleStore()
	s.Profiles[0].Iterations = 0
	if _, err := NewPredictorFromStore(s, "toy", AppModel{}); err == nil {
		t.Error("predictor built from an invalid profile")
	}
}

func TestNewPredictorFromStore(t *testing.T) {
	s := sampleStore()
	pred, err := NewPredictorFromStore(s, "toy", AppModel{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pred.Links["A"]; !ok {
		t.Error("link calibration not wired")
	}
	if _, ok := pred.Scalings["B"]; !ok {
		t.Error("scaling factors not wired")
	}
	// Cross-cluster prediction works straight from the store.
	cfg := s.Profiles[0].Config
	cfg.Cluster = "B"
	if _, err := pred.Predict(cfg, GlobalReduction); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPredictorFromStore(s, "missing", AppModel{}); err == nil {
		t.Error("missing app predictor built")
	}
}
