package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// runSelf runs one workload in a fresh process of this binary — one
// process per workload run, as the driver does — and parses the result
// line. A run that exits non-zero (an incorrect run does) is an error.
func runSelf(workload string, seed int64, seconds float64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		return result{}, fmt.Errorf("%s: no result line (%v): %v", workload, jerr, err)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w\n%s", workload, err, out)
	}
	return res, nil
}

// worsening is how much worse b reads than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAgree is the repeatability self-check: the full set of workloads
// twice, failing unless every end-to-end metric of every workload
// agrees between the two sets within its own regression bound (in
// either direction) and every run is correct.
func runAgree(seed int64, seconds float64) error {
	var sets [2]map[string]result
	for s := range sets {
		sets[s] = make(map[string]result)
		for _, w := range workloadNames() {
			res, err := runSelf(w, seed, seconds, 0)
			if err != nil {
				return err
			}
			sets[s][w] = res
		}
	}
	disagreements := 0
	fmt.Printf("%-20s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "moved", "bound")
	for _, w := range workloadNames() {
		for _, m := range endToEnd {
			a, b := sets[0][w].Metrics[m.Name].Value, sets[1][w].Metrics[m.Name].Value
			moved := max(worsening(m, a, b), worsening(m, b, a))
			verdict := ""
			if moved > m.Bound {
				verdict = "  DISAGREES"
				disagreements++
			}
			fmt.Printf("%-20s %-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w, m.Name, a, b, 100*moved, 100*m.Bound, verdict)
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("%d end-to-end metric(s) moved by more than their bound between two runs of the same commit", disagreements)
	}
	return nil
}

// runSmoke is the wiring check: every workload for one second, untraced
// and traced.
func runSmoke(seed int64) error {
	for _, w := range workloadNames() {
		for trace := 0; trace <= 1; trace++ {
			res, err := runSelf(w, seed, 1, trace)
			if err != nil {
				return err
			}
			fmt.Printf("ok  %-20s trace=%d  %d ops, %d metrics\n", w, trace, res.Attempted, len(res.Metrics))
		}
	}
	return nil
}

// printGoldens computes what golden.json pins, at its seed, and prints
// the file.
func printGoldens() error {
	g := goldens{Seed: 1, GOARCH: runtime.GOARCH, Digests: make(map[string]string)}
	for _, w := range []string{wlHotInproc, wlHotTCP, wlChurnInproc, wlBatchInproc} {
		sw, err := prepareServe(runConfig{workload: w, seed: g.Seed, seconds: 1})
		if err != nil {
			return err
		}
		g.Digests[w] = sw.digest
	}
	serial, _, _, err := runSweepOnce(1)
	if err != nil {
		return err
	}
	g.Digests[wlSweep] = serial.digest
	g.PredErrorMaxPct, g.PredErrorMeanPct = serial.errMaxPct, serial.errMean
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
