package grid

import (
	"fmt"
	"math"
	"sync"
	"time"

	"freerideg/internal/metrics"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

// estimatorSamples counts transfer observations accepted across all
// estimators in the process (the paper's b̂ measurement stream).
var estimatorSamples = metrics.GetCounter("fg_grid_estimator_samples_total",
	"Transfer samples accepted by bandwidth estimators.")

// TransferSample is one observed data movement on a site-to-cluster path.
type TransferSample struct {
	Bytes   units.Bytes
	Elapsed time.Duration
}

// BandwidthEstimator predicts the effective bandwidth of repository-to-
// compute paths from observed transfers, standing in for the wide-area
// transfer prediction services the paper points at for determining b̂
// (Vazhkudai & Schopf; Lu, Qiao, Dinda & Bustamante). The estimator fits
// elapsed = latency + bytes/bandwidth by least squares over the most
// recent observations of each path, so transient congestion ages out.
type BandwidthEstimator struct {
	mu      sync.Mutex
	window  int
	samples map[[2]string][]TransferSample
}

// DefaultEstimatorWindow is how many recent transfers each path keeps.
const DefaultEstimatorWindow = 32

// NewBandwidthEstimator creates an estimator keeping the given number of
// recent samples per path (0 uses DefaultEstimatorWindow).
func NewBandwidthEstimator(window int) *BandwidthEstimator {
	if window <= 0 {
		window = DefaultEstimatorWindow
	}
	return &BandwidthEstimator{
		window:  window,
		samples: make(map[[2]string][]TransferSample),
	}
}

// Observe records one completed transfer on a path.
func (e *BandwidthEstimator) Observe(site, cluster string, s TransferSample) error {
	if s.Bytes <= 0 || s.Elapsed <= 0 {
		return fmt.Errorf("grid: invalid transfer sample %v in %v", s.Bytes, s.Elapsed)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := [2]string{site, cluster}
	list := append(e.samples[key], s)
	if len(list) > e.window {
		list = list[len(list)-e.window:]
	}
	e.samples[key] = list
	estimatorSamples.Inc()
	return nil
}

// Samples reports how many observations a path currently holds.
func (e *BandwidthEstimator) Samples(site, cluster string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.samples[[2]string{site, cluster}])
}

// saneRate reports whether r is a usable bandwidth estimate: strictly
// positive and finite. A fitted slope that underflows toward zero turns
// 1/slope into +Inf (or an absurd finite value next to it); such an
// estimate must never reach the information service as b̂.
func saneRate(r units.Rate) bool {
	f := float64(r)
	return f > 0 && !math.IsInf(f, 0) && !math.IsNaN(f)
}

// Estimate predicts a path's effective bandwidth and latency. It needs at
// least two observations with distinct sizes. The returned rate is
// guaranteed finite and positive: a degenerate or underflowing fit falls
// back to the median direct bytes/elapsed ratio, and when that is
// unusable too, Estimate reports an error instead of a garbage b̂.
func (e *BandwidthEstimator) Estimate(site, cluster string) (units.Rate, time.Duration, error) {
	e.mu.Lock()
	list := append([]TransferSample(nil), e.samples[[2]string{site, cluster}]...)
	e.mu.Unlock()
	if len(list) < 2 {
		return 0, 0, fmt.Errorf("grid: %d sample(s) for %s->%s, need at least 2", len(list), site, cluster)
	}
	xs := make([]float64, len(list))
	ys := make([]float64, len(list))
	for i, s := range list {
		xs[i] = float64(s.Bytes)
		ys[i] = s.Elapsed.Seconds()
	}
	slope, intercept, err := stats.LinFit(xs, ys)
	if err == nil && slope > 0 {
		if bw := units.Rate(1 / slope); saneRate(bw) {
			lat := units.Seconds(intercept)
			if lat < 0 {
				lat = 0
			}
			return bw, lat, nil
		}
	}
	// Degenerate fit (identical sizes, latency-dominated tiny transfers,
	// or a slope underflow): fall back to the median direct ratio.
	ratios := make([]float64, len(list))
	for i, s := range list {
		ratios[i] = float64(s.Bytes) / s.Elapsed.Seconds()
	}
	med, qerr := stats.Quantile(ratios, 0.5)
	if qerr != nil || !saneRate(units.Rate(med)) {
		return 0, 0, fmt.Errorf("grid: path %s->%s has no usable bandwidth signal", site, cluster)
	}
	return units.Rate(med), 0, nil
}
