package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // measurement window
	trace    bool
	outDir   string
}

// report is what one run produces: metric values by name, the failure
// accounting behind `correct`, and the lines of the human-readable
// report printed above the result line.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string // why the run is not correct, if it is not
	notes     []string
	digest    string // the workload's reference digest (see golden.go)
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// samplesPerClientSecond sizes the closed-loop sample buffers: three
// times the ~45k ops/s one in-process client reached on the sizing
// machine. A run that fills its buffer ends early and says so.
const samplesPerClientSecond = 150_000

// numClients is the load generator's width: nproc is 2 on the sizing
// machine, so two client goroutines (and two connections) are the most
// that do not fight the server for a core.
const numClients = 2

// quiesceReads is how many reads the churn workload repeats after the
// writers have stopped, to show the service answers identically twice.
const quiesceReads = 1000

// warmupSeconds is the un-timed closed-loop warm-up before the window.
// It is not an argument: what the window starts from is part of what
// is measured.
const warmupSeconds = 2

// passCount is how many consecutive passes the window is split into:
// one per whole second, so a pass of the slowest workload (about 2900
// batches a second on the sizing machine) still has the thousand
// samples a p99 with ten samples beyond it needs.
func passCount(seconds float64) int { return max(int(seconds), 1) }

// minP99Samples is the fewest samples with ten beyond their 0.99
// quantile.
const minP99Samples = 1000

// passStats is one pass's share of the window.
type passStats struct {
	samples      int     // correct ops
	throughput   float64 // correct ops per second
	p50ms, p99ms float64
	cpuUs        float64 // process CPU per attempted op
}

// serveWorkload is everything a serve run needs besides the server: the
// op schedule, the checker, and the reference digest.
type serveWorkload struct {
	sched    []op
	chk      checker
	pretouch []op // replayed (and checked) once before warm-up
	digest   string
}

func (w *serveWorkload) checksum() string { return fingerprint(w.sched, nil) }

// pretouchAll replays the workload's distinct requests once, checked,
// so every cache is full — and the steady state under way — before the
// first measured op.
func (w *serveWorkload) pretouchAll(rep *report, c *client) {
	for i := range w.pretouch {
		status, body, err := c.tgt.do(&w.pretouch[i])
		if err != nil || !w.chk(c, &w.pretouch[i], status, body) {
			rep.problem("pre-touch of %s failed: %v %s", w.pretouch[i].url.Path, err, c.firstFailure)
			return
		}
	}
}

func prepareServe(cfg runConfig) (*serveWorkload, error) {
	w := &serveWorkload{}
	switch cfg.workload {
	case wlHotInproc, wlHotTCP:
		voc := hotVocabulary()
		ref, err := buildReference(voc.ops)
		if err != nil {
			return nil, err
		}
		w.sched = hotSchedule(voc, cfg.seed, scheduleLen)
		w.chk, w.pretouch = referenceChecker(ref), voc.ops
		w.digest = digestResponses(voc.ops, ref)
	case wlBatchInproc:
		voc := hotVocabulary()
		w.sched = batchSchedule(voc, cfg.seed, 256)
		ref, err := buildReference(w.sched)
		if err != nil {
			return nil, err
		}
		w.chk, w.pretouch = referenceChecker(ref), w.sched
		w.digest = digestResponses(w.sched, ref)
	case wlChurnInproc:
		w.sched = churnSchedule(cfg.seed, scheduleLen)
		w.chk = churnChecker
		// The pinned digest covers what a fresh server answers to the
		// schedule's first reads, before any write has landed.
		reads := firstReads(w.sched, quiesceReads)
		ref, err := buildReference(reads)
		if err != nil {
			return nil, err
		}
		w.digest = digestResponses(reads, ref)
	default:
		return nil, fmt.Errorf("unknown serve workload %q", cfg.workload)
	}
	return w, nil
}

func firstReads(sched []op, n int) []op {
	var out []op
	for i := range sched {
		if sched[i].kind == kindPredict || sched[i].kind == kindSelect {
			out = append(out, sched[i])
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// runServe is one untraced run of a serve workload: set-up (timed,
// repeated), oracle, warm-up, the measurement window, and the checks
// that follow it.
func runServe(cfg runConfig) (*report, error) {
	rep := newReport()
	conns := &connStats{}
	srv, setupS, err := setupServers(cfg.workload == wlHotTCP, conns)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	w, err := prepareServe(cfg)
	if err != nil {
		return nil, err
	}
	rep.digest = w.digest

	clients, backing := newClients(numClients, int(samplesPerClientSecond*cfg.seconds), func() target { return srv.newTarget(conns) })
	defer func() {
		for _, c := range clients {
			c.tgt.close()
		}
	}()
	numPasses := passCount(cfg.seconds)
	passDur := time.Duration(cfg.seconds / float64(numPasses) * float64(time.Second))
	scratch := make([]uint32, len(backing)/numPasses+numClients)
	touchPages(scratch)

	w.pretouchAll(rep, clients[0])
	runClosed(clients, w.sched, warmupSeconds*time.Second, w.chk, false)

	// The window is measured as consecutive passes; every timing metric
	// is computed per pass and the run reports the median pass, so a
	// stall of the machine costs one pass its numbers, not the run.
	var passes []passStats
	predStats0, selStats0 := srv.srv.CacheStats()
	version0 := srv.srv.Store().Snapshot().Version()
	before := readProc()
	var elapsed time.Duration
	for k := 0; k < numPasses; k++ {
		marks := make([]int, len(clients))
		var attempted0 int64
		for i, c := range clients {
			marks[i] = len(c.samples)
			attempted0 += c.attempted
		}
		cpu0 := cpuTime()
		took := runClosed(clients, w.sched, passDur, w.chk, true)
		cpu := cpuTime() - cpu0
		elapsed += took
		sorted := passSamples(clients, marks, scratch)
		attempted := -attempted0
		for _, c := range clients {
			attempted += c.attempted
		}
		if len(sorted) == 0 {
			continue // every op of the pass failed; the failure count says so
		}
		passes = append(passes, passStats{
			samples:    len(sorted),
			throughput: float64(len(sorted)) / took.Seconds(),
			p50ms:      float64(sampleNanos(quantile(sorted, 0.5))) / 1e6,
			p99ms:      float64(sampleNanos(quantile(sorted, 0.99))) / 1e6,
			cpuUs:      float64(cpu.Microseconds()) / float64(attempted),
		})
	}
	used := readProc().since(before)
	predStats, selStats := srv.srv.CacheStats()

	for _, c := range clients {
		rep.attempted += c.attempted
		rep.failed += c.failed
		if c.firstFailure != "" {
			rep.problem("client %d: %s", c.id, c.firstFailure)
		}
		if c.full {
			rep.note("client %d filled its sample buffer; its passes ended early", c.id)
		}
	}
	windowOps := rep.attempted
	if cfg.workload == wlChurnInproc {
		quiesceCheck(rep, clients[0].tgt, w.sched)
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded: %s", cfg.workload, strings.Join(rep.problems, "; "))
	}

	over := func(f func(passStats) float64) []float64 {
		out := make([]float64, len(passes))
		for i, ps := range passes {
			out[i] = f(ps)
		}
		return out
	}
	// A p99 is quoted only with ten samples beyond it. One stalled pass
	// may fall short — the median pass does not feel it — but when the
	// median pass does, latency_p99_ms is not a p99 any more.
	if n := median(over(func(ps passStats) float64 { return float64(ps.samples) })); n < minP99Samples {
		rep.problem("the median pass has %.0f samples, too few for a p99 with ten samples beyond it", n)
	}
	throughput := func(ps passStats) float64 { return ps.throughput }
	p50 := func(ps passStats) float64 { return ps.p50ms }
	p99 := func(ps passStats) float64 { return ps.p99ms }
	rep.values["setup_s"] = setupS
	rep.values["throughput_rps"] = median(over(throughput))
	rep.values["latency_p50_ms"] = median(over(p50))
	rep.values["latency_p99_ms"] = median(over(p99))
	rep.values["cpu_us_per_op"] = median(over(func(ps passStats) float64 { return ps.cpuUs }))

	sorted := gatherSamples(clients, backing)
	rep.note("workload %s seed %d: schedule checksum %s, %d ops per cycle, reference digest %s",
		cfg.workload, cfg.seed, w.checksum(), len(w.sched), w.digest)
	rep.note("GOMAXPROCS %d, %d closed-loop clients, window %.2fs in %d passes after %ds warm-up; timing metrics are the median pass, set-up the median of %d set-ups",
		runtime.GOMAXPROCS(0), numClients, elapsed.Seconds(), len(passes), warmupSeconds, setupRepeats)
	rep.note("ops over the window: %d attempted, %d ok, %d failed; latency_p99_ms is the 0.99 quantile of a pass, over ~%d samples",
		windowOps, len(sorted), rep.failed, len(sorted)/len(passes))
	rep.note("throughput per pass (1/s): %s", formatSeries(over(throughput), "%.0f"))
	rep.note("p50 per pass (ms): %s", formatSeries(over(p50), "%.4f"))
	rep.note("p99 per pass (ms): %s", formatSeries(over(p99), "%.4f"))
	for k, name := range map[opKind]string{kindPredict: "/predict", kindSelect: "/select", kindWrite: "/observe+/runs", kindBatch: "batch"} {
		if p50, n := kindQuantile(sorted, k, 0.5); n > 0 {
			rep.note("  %-15s p50 %.4f ms over %d ops (whole window)", name, float64(p50)/1e6, n)
		}
	}
	if cfg.workload == wlBatchInproc {
		rep.note("items answered per second: %.0f (%d per batch)", rep.values["throughput_rps"]*batchItems, batchItems)
	}
	if cfg.workload == wlHotTCP {
		rep.note("traffic crosses the host loopback, not a link; connection reuse %.4f", conns.reuseShare())
	}
	rep.note("response cache over the window: predict hit share %.3f, select hit share %.3f, evictions %.0f, invalidations %.0f",
		share(predStats.Hits-predStats0.Hits, predStats.Misses-predStats0.Misses),
		share(selStats.Hits-selStats0.Hits, selStats.Misses-selStats0.Misses),
		predStats.Evictions-predStats0.Evictions+selStats.Evictions-selStats0.Evictions,
		predStats.Invalidations-predStats0.Invalidations+selStats.Invalidations-selStats0.Invalidations)
	if moves := srv.srv.Store().Snapshot().Version() - version0; moves > 0 {
		rep.note("profile store version moved %d times over the window (one recalibration each): every %.0f ops",
			moves, float64(windowOps)/float64(moves))
	}
	rep.note("process over the window: %.1f allocs/op, %.0f B/op, GC pause %.2f ms",
		float64(used.mallocs)/float64(windowOps), float64(used.allocBytes)/float64(windowOps),
		float64(used.gcPause)/1e6)
	return rep, nil
}

func formatSeries(xs []float64, verb string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(verb, x)
	}
	return strings.Join(parts, " ")
}

// quiesceCheck repeats a sample of reads once the writers have stopped:
// with nothing moving the store or the estimator, the service must give
// the same bytes twice.
func quiesceCheck(rep *report, tgt target, sched []op) {
	reads := firstReads(sched, quiesceReads)
	for i := range reads {
		s1, b1, _ := tgt.do(&reads[i])
		first := bytes.Clone(b1)
		s2, b2, _ := tgt.do(&reads[i])
		rep.attempted++
		if s1 != http.StatusOK || s2 != http.StatusOK || !bytes.Equal(first, b2) {
			rep.failed++
			rep.problem("quiesced %s answered differently twice: %.200s vs %.200s", reads[i].url.Path, first, b2)
			return
		}
	}
}
