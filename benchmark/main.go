// Command benchmark is the repository's tracked benchmark: five
// workloads over the prediction service and the figure sweep, end-to-end
// metrics with regression bounds, per-layer metrics from a traced run,
// and correctness oracles on every answer. See README.md for the tables
// and BENCHMARK.json at the repo root for the contract.
//
// One process runs one workload once:
//
//	sh benchmark/run.sh --workload serve-hot-inproc --seed 1 --seconds 10 --trace 0
//
// prints a human-readable report and, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
		seed        = flag.Int64("seed", 1, "seed of the op schedule and arrival process")
		seconds     = flag.Float64("seconds", runSeconds, "measurement window in seconds")
		trace       = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.jsonl; 0 = end-to-end metrics")
		outDir      = flag.String("out", ".bench_build", "directory the traced run writes trace-<workload>.jsonl into")
		agree       = flag.Bool("agree", false, "run every workload twice and exit non-zero unless each end-to-end metric agrees within its bound")
		smoke       = flag.Bool("smoke", false, "run every workload, untraced and traced, for 1 s as a wiring check")
		printSpec   = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
		printGolden = flag.Bool("print-golden", false, "compute golden.json at seed 1 and print it")
	)
	flag.Parse()
	switch {
	case *printSpec:
		out, _ := json.MarshalIndent(benchmarkSpec(), "", "  ")
		fmt.Println(string(out))
		return
	case *printGolden:
		exitOn(printGoldens())
		return
	case *agree:
		exitOn(runAgree(*seed, *seconds))
		return
	case *smoke:
		exitOn(runSmoke(*seed))
		return
	}
	if !slices.Contains(workloadNames(), *workload) {
		exitOn(fmt.Errorf("-workload %q: want one of %v", *workload, workloadNames()))
	}
	if *seconds <= 0 {
		exitOn(fmt.Errorf("-seconds must be positive"))
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	rep, err := runWorkload(cfg)
	exitOn(err)
	if !emit(rep, cfg) {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runWorkload dispatches one run and applies the checks every workload
// shares: the pinned digest and the exact metric set.
func runWorkload(cfg runConfig) (*report, error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	var rep *report
	switch {
	case cfg.trace:
		rep, err = runTraced(cfg, g)
	case cfg.workload == wlSweep:
		rep, err = runSweep(cfg, g)
	default:
		rep, err = runServe(cfg)
	}
	if err != nil {
		return nil, err
	}
	if msg := g.checkGolden(cfg.workload, cfg.seed, rep.digest); msg != "" {
		rep.problem("%s", msg)
	}
	if !cfg.trace {
		// Last, so the analysis above is inside the high-water mark.
		rep.values["peak_rss_mb"] = peakRSSMB()
	}
	return rep, nil
}

// emit prints the report and the result line, and reports whether the
// run was correct. A metric missing from (or foreign to) the spec is a
// bug in the benchmark and fails the run.
func emit(rep *report, cfg runConfig) bool {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		v, ok := rep.values[m.Name]
		if !ok {
			rep.problem("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range rep.values {
		if _, ok := res.Metrics[name]; !ok {
			rep.problem("metric %s is not in the spec", name)
		}
	}
	res.Correct = rep.failed == 0 && len(rep.problems) == 0
	res.Attempted = max(res.Attempted, 1)

	for _, line := range rep.notes {
		fmt.Println(line)
	}
	for _, m := range specs {
		fmt.Printf("  %-44s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Println("INCORRECT:", p)
	}
	line, err := json.Marshal(res)
	exitOn(err)
	fmt.Println(string(line))
	return res.Correct
}
