package grid

import (
	"math"
	"testing"
	"time"

	"freerideg/internal/units"
)

// synthTransfer fabricates a sample for a path with the given true
// bandwidth and latency.
func synthTransfer(bytes units.Bytes, bw units.Rate, lat time.Duration) TransferSample {
	return TransferSample{Bytes: bytes, Elapsed: lat + bw.TransferTime(bytes)}
}

func TestEstimatorRecoversBandwidthAndLatency(t *testing.T) {
	e := NewBandwidthEstimator(0)
	trueBW := 40 * units.MBPerSec
	trueLat := 30 * time.Millisecond
	for _, mb := range []units.Bytes{1, 4, 16, 64, 128} {
		if err := e.Observe("site", "cl", synthTransfer(mb*units.MB, trueBW, trueLat)); err != nil {
			t.Fatal(err)
		}
	}
	bw, lat, err := e.Estimate("site", "cl")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(bw)-float64(trueBW))/float64(trueBW) > 0.01 {
		t.Errorf("estimated %v, want %v", bw, trueBW)
	}
	if d := lat - trueLat; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("estimated latency %v, want %v", lat, trueLat)
	}
}

func TestEstimatorNeedsTwoSamples(t *testing.T) {
	e := NewBandwidthEstimator(0)
	if _, _, err := e.Estimate("a", "b"); err == nil {
		t.Error("empty path estimated")
	}
	_ = e.Observe("a", "b", synthTransfer(units.MB, 10*units.MBPerSec, 0))
	if _, _, err := e.Estimate("a", "b"); err == nil {
		t.Error("single-sample path estimated")
	}
}

func TestEstimatorIdenticalSizesFallBack(t *testing.T) {
	// All same size: the regression is degenerate; the median ratio
	// fallback must still produce a sane bandwidth.
	e := NewBandwidthEstimator(0)
	for i := 0; i < 5; i++ {
		_ = e.Observe("a", "b", synthTransfer(8*units.MB, 20*units.MBPerSec, 0))
	}
	bw, _, err := e.Estimate("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(bw) / float64(20*units.MBPerSec)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("fallback estimate %v, want ~20MB/s", bw)
	}
}

func TestEstimatorWindowAgesOutOldSamples(t *testing.T) {
	e := NewBandwidthEstimator(4)
	// Old congested era: 5 MB/s.
	for _, mb := range []units.Bytes{1, 2, 4, 8} {
		_ = e.Observe("a", "b", synthTransfer(mb*units.MB, 5*units.MBPerSec, 0))
	}
	// Recovery: 50 MB/s; window of 4 drops all old samples.
	for _, mb := range []units.Bytes{1, 2, 4, 8} {
		_ = e.Observe("a", "b", synthTransfer(mb*units.MB, 50*units.MBPerSec, 0))
	}
	bw, _, err := e.Estimate("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if float64(bw) < float64(40*units.MBPerSec) {
		t.Fatalf("estimator stuck at stale bandwidth: %v", bw)
	}
	if e.Samples("a", "b") != 4 {
		t.Fatalf("window kept %d samples, want 4", e.Samples("a", "b"))
	}
}

func TestEstimatorRejectsBadSamples(t *testing.T) {
	e := NewBandwidthEstimator(0)
	if err := e.Observe("a", "b", TransferSample{Bytes: 0, Elapsed: time.Second}); err == nil {
		t.Error("zero-byte sample accepted")
	}
	if err := e.Observe("a", "b", TransferSample{Bytes: units.MB, Elapsed: 0}); err == nil {
		t.Error("zero-time sample accepted")
	}
}

func TestSaneRate(t *testing.T) {
	cases := []struct {
		r    units.Rate
		want bool
	}{
		{100 * units.MBPerSec, true},
		{units.Rate(1), true},
		{0, false},
		{units.Rate(-5), false},
		{units.Rate(math.Inf(1)), false},
		{units.Rate(math.Inf(-1)), false},
		{units.Rate(math.NaN()), false},
	}
	for _, c := range cases {
		if got := saneRate(c.r); got != c.want {
			t.Errorf("saneRate(%v) = %v, want %v", float64(c.r), got, c.want)
		}
	}
}

// TestEstimateNearIdenticalSizesStaysFinite is the regression test for
// the slope-underflow bug: sizes that differ by a handful of bytes make
// the least-squares denominator tiny, and the fitted slope can collapse
// toward zero so that 1/slope explodes. Whatever path Estimate takes, a
// nil error must come with a finite, positive rate.
func TestEstimateNearIdenticalSizesStaysFinite(t *testing.T) {
	e := NewBandwidthEstimator(0)
	base := units.Bytes(1_000_000)
	elapsed := []time.Duration{time.Second, time.Second, time.Second + time.Nanosecond}
	for i, d := range elapsed {
		s := TransferSample{Bytes: base + units.Bytes(i%2), Elapsed: d}
		if err := e.Observe("site", "cl", s); err != nil {
			t.Fatal(err)
		}
	}
	bw, lat, err := e.Estimate("site", "cl")
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if !saneRate(bw) {
		t.Fatalf("Estimate returned non-sane rate %v", float64(bw))
	}
	if lat < 0 {
		t.Fatalf("Estimate returned negative latency %v", lat)
	}
}

// TestEstimateIdenticalSizesFallsBackToMedian pins the degenerate-fit
// path: all-equal sizes have no slope at all, so the median direct ratio
// is the estimate.
func TestEstimateIdenticalSizesFallsBackToMedian(t *testing.T) {
	e := NewBandwidthEstimator(0)
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second} {
		if err := e.Observe("s", "c", TransferSample{Bytes: 64 * units.MB, Elapsed: d}); err != nil {
			t.Fatal(err)
		}
	}
	bw, lat, err := e.Estimate("s", "c")
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	want := units.Rate(float64(64*units.MB) / 2) // median elapsed is 2s
	if math.Abs(float64(bw)-float64(want)) > 1 {
		t.Fatalf("median fallback = %v, want %v", bw, want)
	}
	if lat != 0 {
		t.Fatalf("median fallback latency = %v, want 0", lat)
	}
}

// TestEstimateNeverReturnsGarbageBandwidth drives the estimator with
// pathological sample mixes and checks that every bandwidth Estimate
// returns without an error — the b̂ the information service is fed — is
// finite and positive.
func TestEstimateNeverReturnsGarbageBandwidth(t *testing.T) {
	e := NewBandwidthEstimator(0)
	// Near-identical sizes on one path, identical on another, healthy on
	// a third.
	for i := 0; i < 8; i++ {
		_ = e.Observe("p1", "c", TransferSample{Bytes: 1_000_000 + units.Bytes(i%2), Elapsed: time.Second + time.Duration(i)*time.Nanosecond})
		_ = e.Observe("p2", "c", TransferSample{Bytes: 32 * units.MB, Elapsed: time.Second})
		_ = e.Observe("p3", "c", synthTransfer(units.Bytes(i+1)*16*units.MB, 50*units.MBPerSec, 10*time.Millisecond))
	}
	for _, site := range []string{"p1", "p2", "p3"} {
		bw, _, err := e.Estimate(site, "c")
		if err != nil {
			continue // not estimable is fine; garbage is not
		}
		if !saneRate(bw) {
			t.Errorf("Estimate returned non-sane bandwidth %v for %s", float64(bw), site)
		}
	}
}
