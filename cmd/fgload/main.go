// Command fgload is the deterministic load and soak harness for the
// prediction service. It replays a seeded workload mix (/predict,
// /select, /observe, /runs at configurable weights and concurrency)
// against an in-process server or a remote -addr, and reports
// per-endpoint p50/p95/p99 latency, error rates, and — with
// -coherence-batches — the cache-coherence check that interleaves real
// recalibrations with the read traffic and asserts no response ever
// predates a completed recalibration.
//
// Modes:
//
//	fgload                                  # in-process server
//	fgload -addr http://localhost:8080      # drive a running fgserved
//
// fgload is a correctness soak (coherence, cancellation, goroutine
// drain), not a benchmark: performance is measured by benchmark/run.sh.
//
// The exit status is the gate load scripts rely on: nonzero when any
// request failed at the transport, any response was a 5xx, or the
// coherence check counted a violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"freerideg/internal/cliutil"
	"freerideg/internal/fgservice"
	"freerideg/internal/loadgen"
	"freerideg/internal/servecache"
	"freerideg/internal/units"
)

// cacheCounters is the JSON view of one cache's servecache.Stats.
type cacheCounters struct {
	Hits          float64 `json:"hits"`
	Misses        float64 `json:"misses"`
	Coalesced     float64 `json:"coalesced"`
	Invalidations float64 `json:"invalidations"`
	Evictions     float64 `json:"evictions"`
	Abandoned     float64 `json:"abandoned,omitempty"`
}

func fromStats(s servecache.Stats) cacheCounters {
	return cacheCounters{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Coalesced:     s.Coalesced,
		Invalidations: s.Invalidations,
		Evictions:     s.Evictions,
		Abandoned:     s.Abandoned,
	}
}

// runOutput is one run's report plus, for in-process runs, the /select
// response cache counters the run moved.
type runOutput struct {
	loadgen.Report
	SelectCache *cacheCounters `json:"selectCache,omitempty"`
}

// output is the fgload report schema.
type output struct {
	GoVersion string     `json:"goVersion"`
	Cores     int        `json:"cores"`
	Mode      string     `json:"mode"`
	Run       *runOutput `json:"run"`
}

func main() {
	var (
		addr      = flag.String("addr", "", "base URL of a running service (empty = in-process server)")
		requests  = flag.Int("requests", 400, "total generated requests")
		conc      = flag.Int("concurrency", 8, "concurrent workers")
		seed      = flag.Int64("seed", 1, "workload seed; equal seeds replay identical request streams")
		mixFlag   = flag.String("mix", "", "workload mix weights, e.g. predict=6,select=2,observe=1,runs=1")
		app       = flag.String("app", "kmeans", "application every request targets")
		baseSize  = cliutil.Bytes("base-size", 64*units.MB, "mid-point dataset size; generated sizes span 0.5x..2x")
		coherence = flag.Int("coherence-batches", 0, "drift-driven recalibration batches interleaved with the reads (asserts cache coherence)")
		out       = flag.String("out", "", "report file (empty = stdout)")

		clientTimeout  = flag.Duration("client-timeout", 0, "per-op client deadline; expired ops count as timeouts, not plain transport errors (0 = unbounded)")
		expectTimeouts = flag.Bool("expect-timeouts", false, "tolerate client timeouts, 504s, and 503 shedding in the gate (cancellation smoke mode)")
		goroutineCheck = flag.Bool("goroutine-check", false, "after the run, fail if goroutines have not drained back near the pre-run baseline")
	)
	flag.Parse()

	// Baseline before any server or worker goroutines exist; the post-run
	// check asserts abandoned requests stranded nothing.
	baselineGoroutines := runtime.NumGoroutine()

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fail(err)
	}
	opts := loadgen.Options{
		Requests:      *requests,
		Concurrency:   *conc,
		Seed:          *seed,
		Mix:           mix,
		App:           *app,
		BaseBytes:     baseSize.Bytes,
		Coherence:     *coherence,
		ClientTimeout: *clientTimeout,
	}

	rep := output{GoVersion: runtime.Version(), Cores: runtime.NumCPU()}
	if *addr == "" {
		rep.Mode = "in-process"
		run, err := runInProcess(opts, *conc)
		if err != nil {
			fail(err)
		}
		rep.Run = run
	} else {
		rep.Mode = "remote"
		r := loadgen.New(loadgen.NewHTTPTarget(*addr, nil), opts)
		report, err := r.Run()
		if err != nil {
			fail(err)
		}
		rep.Run = &runOutput{Report: report}
	}

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	js = append(js, '\n')
	if *out == "" {
		os.Stdout.Write(js)
	} else {
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("fgload: %s report -> %s\n", rep.Mode, *out)
	}

	if err := gate(rep.Run, *expectTimeouts); err != nil {
		fail(err)
	}
	if *goroutineCheck {
		if err := checkGoroutines(baselineGoroutines); err != nil {
			fail(err)
		}
	}
}

// checkGoroutines asserts the process drained back near its pre-run
// goroutine count. Requests run on their callers' goroutines; what an
// abandoned one can leave behind is a detached cache fill or profiling
// run, which finishes on its own, so after a short settle window
// anything still running is a leak: a worker stuck in a request past
// its deadline or a fill goroutine nobody cancelled. The slack term
// covers runtime-internal goroutines (GC workers, netpoller, timer
// goroutines) that scale with the machine, not the workload.
func checkGoroutines(baseline int) error {
	limit := baseline + 2*runtime.GOMAXPROCS(0) + 8
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > limit {
		return fmt.Errorf("goroutine leak: %d alive after run (baseline %d, limit %d)", n, baseline, limit)
	}
	return nil
}

// runInProcess stands up a fresh server and drives the workload
// straight into its handler. MaxInFlight admits every worker plus the
// coherence coordinator so the limiter never sheds the harness's own
// load.
func runInProcess(opts loadgen.Options, conc int) (*runOutput, error) {
	srv, err := fgservice.New(fgservice.Options{MaxInFlight: conc + 2})
	if err != nil {
		return nil, err
	}
	r := loadgen.New(loadgen.NewHandlerTarget(srv.Handler()), opts)
	report, err := r.Run()
	if err != nil {
		return nil, err
	}
	// The process holds this one server, so the cache's process-wide
	// counters are the run's own.
	_, sel := srv.CacheStats()
	sc := fromStats(sel)
	return &runOutput{Report: report, SelectCache: &sc}, nil
}

// gate turns run-level failures into a nonzero exit: transport errors,
// server-side 5xx responses, or coherence violations. Client-side 4xx
// are reported but not fatal — a remote target may legitimately reject
// parts of a mix (e.g. an app it does not know).
//
// With expectTimeouts (the cancellation smoke), deadline outcomes are
// the point of the run, not failures: client-side timeouts and 504
// answers pass, and only transport errors beyond the timeout count or
// non-504 5xx statuses still trip the gate.
func gate(r *runOutput, expectTimeouts bool) error {
	if hard := r.TransportErrors - r.TransportTimeouts; !expectTimeouts && r.TransportErrors > 0 {
		return fmt.Errorf("%d requests failed at the transport", r.TransportErrors)
	} else if hard > 0 {
		return fmt.Errorf("%d requests failed at the transport beyond the %d expected timeouts", hard, r.TransportTimeouts)
	}
	for code, n := range r.StatusCounts {
		// 504 is the point of the cancellation smoke. 503 is the server
		// correctly shedding load in the race window where an abandoned
		// handler (possibly finishing a deliberately-detached profiling
		// run) still holds its slot while the timed-out client has
		// already fired its next op — legitimate backpressure, not a
		// stuck slot (the goroutine check still catches stranding).
		if expectTimeouts && (code == "504" || code == "503") {
			continue
		}
		if c, err := strconv.Atoi(code); err == nil && c >= 500 && n > 0 {
			return withFailedIDs(fmt.Errorf("%d responses with status %s", n, code), r.FailedRequestIDs)
		}
	}
	if !expectTimeouts && r.BatchItemErrors > 0 {
		return withFailedIDs(fmt.Errorf("%d of %d batch items answered with a per-item error",
			r.BatchItemErrors, r.BatchItems), r.FailedRequestIDs)
	}
	if coh := r.Coherence; coh != nil {
		if coh.Errors > 0 {
			return fmt.Errorf("coherence coordinator hit %d errors", coh.Errors)
		}
		if coh.Violations > 0 {
			return fmt.Errorf("%d cache-coherence violations (reads served pre-recalibration answers)", coh.Violations)
		}
	}
	return nil
}

// withFailedIDs appends a bounded sample of failed-request correlation
// IDs to a gate failure, so the operator can pull the exact traces from
// the target's /debug/requests ring.
func withFailedIDs(err error, ids []string) error {
	if len(ids) == 0 {
		return err
	}
	if len(ids) > 8 {
		ids = ids[:8]
	}
	return fmt.Errorf("%w (sample failed request IDs: %s)", err, strings.Join(ids, ", "))
}

func fail(err error) { cliutil.Fatal("fgload", err) }
