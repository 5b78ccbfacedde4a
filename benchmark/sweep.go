package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"freerideg/internal/bench"
	"freerideg/internal/core"
)

// sweepOutcome is what one full figure sweep produced, reduced to what
// the oracles compare.
type sweepOutcome struct {
	digest             string // SHA-256 of json.Marshal(RunAll())
	errMaxPct, errMean float64
}

// simCounter counts the simulations a harness actually executes, as its
// run observer (memo hits are not reported to observers). The count is
// not part of the outcome the oracles compare: a traced base-profile run
// publishes its result to the memo, so whether a cell sharing its key
// re-executes depends on which of the two is scheduled first.
type simCounter struct{ n atomic.Int64 }

func (c *simCounter) observe(core.Profile) { c.n.Add(1) }

// runSweepOnce builds a fresh harness (cold memo) at the given
// parallelism (0 = the default, GOMAXPROCS) and regenerates Figures
// 2-13. It returns the time RunAll took and how many simulations it
// executed.
func runSweepOnce(parallelism int) (sweepOutcome, time.Duration, int, error) {
	h, err := bench.NewHarness()
	if err != nil {
		return sweepOutcome{}, 0, 0, err
	}
	if parallelism > 0 {
		h.SetParallelism(parallelism)
	}
	counter := new(simCounter)
	h.SetObserver(counter.observe)
	t1 := time.Now()
	figs, err := h.RunAll()
	runAll := time.Since(t1)
	if err != nil {
		return sweepOutcome{}, 0, 0, err
	}
	out, err := summarizeFigures(figs)
	return out, runAll, int(counter.n.Load()), err
}

// timeHarnessSetup times bench.NewHarness — the sweep's whole set-up, a
// microsecond of link calibration — in batches, so the clock's own
// resolution does not show, and returns the median batch's seconds per
// call.
func timeHarnessSetup() (float64, error) {
	var err error
	ns := perCall(setupRepeats, 5000, func() {
		if _, herr := bench.NewHarness(); herr != nil {
			err = herr
		}
	})
	return ns / 1e9, err
}

func summarizeFigures(figs []bench.Figure) (sweepOutcome, error) {
	raw, err := json.Marshal(figs)
	if err != nil {
		return sweepOutcome{}, fmt.Errorf("marshaling figures: %w", err)
	}
	sum := sha256.Sum256(raw)
	out := sweepOutcome{digest: hex.EncodeToString(sum[:])}
	// The paper's headline metric: the global-reduction variant's
	// relative error, over every cell of every figure.
	var total float64
	cells := 0
	for _, f := range figs {
		for _, c := range f.Cells {
			if e, ok := c.Errors[core.GlobalReduction]; ok {
				out.errMaxPct = max(out.errMaxPct, 100*e)
				total += 100 * e
				cells++
			}
		}
	}
	if cells == 0 {
		return out, fmt.Errorf("figure sweep produced no global-reduction cells")
	}
	out.errMean = total / float64(cells)
	return out, nil
}

// sweepTailQuantile is the quantile of a run's sweep times that
// sweep-figures prints as latency_p99_ms.
const sweepTailQuantile = 0.75

// runSweep is one untraced run of sweep-figures: a serial reference
// sweep (the oracle, and the warm-up), then cold parallel sweeps until
// the window has passed — at least three.
func runSweep(cfg runConfig, g goldens) (*report, error) {
	rep := newReport()
	setupS, err := timeHarnessSetup()
	if err != nil {
		return nil, err
	}
	serial, serialTime, _, err := runSweepOnce(1)
	if err != nil {
		return nil, err
	}
	rep.digest = serial.digest

	var sweeps, cpus []float64
	sims := 0
	start := time.Now()
	for len(sweeps) < 3 || time.Since(start).Seconds() < cfg.seconds {
		cpu0 := cpuTime()
		out, runAll, n, err := runSweepOnce(0)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		if out != serial {
			rep.failed++
			rep.problem("parallel sweep differs from SetParallelism(1): %+v vs %+v", out, serial)
			continue
		}
		sweeps = append(sweeps, runAll.Seconds())
		cpus = append(cpus, float64((cpuTime() - cpu0).Microseconds()))
		sims = n
	}
	elapsed := time.Since(start)
	if len(sweeps) == 0 {
		return nil, fmt.Errorf("sweep-figures: no sweep matched the serial reference")
	}
	if runtime.GOARCH == g.GOARCH &&
		(serial.errMaxPct != g.PredErrorMaxPct || serial.errMean != g.PredErrorMeanPct) {
		rep.problem("prediction error moved: max %.17g%% mean %.17g%%, pinned max %.17g%% mean %.17g%%",
			serial.errMaxPct, serial.errMean, g.PredErrorMaxPct, g.PredErrorMeanPct)
	}

	// One sweep is one op and one pass: the median sweep is the run's
	// sweep_s. A run has about ten sweeps, a thousand short of a p99, so
	// on this workload the tail metric is always the 0.75 quantile of
	// the sweep times, and the report says so.
	series := formatSeries(sweeps, "%.3f")
	sweepS := median(sweeps)
	rep.values["setup_s"] = setupS
	rep.values["throughput_rps"] = 1 / sweepS
	rep.values["latency_p50_ms"] = 1e3 * sweepS
	rep.values["latency_p99_ms"] = 1e3 * quantile(sweeps, sweepTailQuantile)
	rep.values["cpu_us_per_op"] = median(cpus)

	rep.note("workload %s: %d cold sweeps of Figures 2-13 in %.2fs, GOMAXPROCS %d (default parallelism), figures digest %s",
		cfg.workload, len(sweeps), elapsed.Seconds(), runtime.GOMAXPROCS(0), serial.digest)
	rep.note("sweep_s per sweep: %s; median %.4f (latency_p50_ms), %.2f quantile %.4f (latency_p99_ms on this workload), serial reference %.4fs, %d simulations per sweep, %.1f sims/s",
		series, sweepS, sweepTailQuantile, quantile(sweeps, sweepTailQuantile), serialTime.Seconds(), sims, float64(sims)/sweepS)
	rep.note("prediction error (global reduction, every cell): max %.6f%% mean %.6f%%", serial.errMaxPct, serial.errMean)
	return rep, nil
}
