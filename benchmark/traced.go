package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/fgservice"
	"freerideg/internal/metrics"
	"freerideg/internal/reqtrace"
)

// The traced run. It repeats the workload with one client for a fixed
// number of ops, twice: a plain pass, which yields the counters the
// program exports and the process accounting for that workload, and a
// pass with the benchmark's spans on, which yields trace-<workload>.jsonl
// and — by comparing the two passes' medians — what the spans cost. It
// then probes every layer through its public functions; those numbers do
// not depend on the workload, so every traced run prints all of them.

// tracedOps is the op count of each traced pass; a pass also ends when
// a quarter of the measurement window has gone by.
const tracedOps = 20_000

// replayer is the per-op replay of layer calls under an op's root span.
type replayer struct {
	kit *layerKit
	rec *spanRecorder
}

// replayHandler records the children of one handler span: the layer
// calls the handler stack makes for this op, replayed on the kit.
func (rp *replayer) replayHandler(trace, parent uint32, o *op, body []byte, cacheHit bool) {
	k, rec := rp.kit, rp.rec
	path := o.url.Path
	var req, resp any
	switch path {
	case "/predict":
		req, resp = new(fgservice.PredictRequest), new(fgservice.PredictResponse)
	case "/select":
		req, resp = new(fgservice.SelectRequest), new(fgservice.SelectResponse)
	case "/observe":
		req, resp = new(fgservice.ObserveRequest), new(fgservice.ObserveResponse)
	case "/runs":
		req, resp = new(fgservice.RunRequest), new(map[string]any)
	case "/predict/batch":
		req, resp = new(fgservice.PredictBatchRequest), new(fgservice.PredictBatchResponse)
	case "/select/batch":
		req, resp = new(fgservice.SelectBatchRequest), new(fgservice.SelectBatchResponse)
	}
	// Untimed: the typed response the encode replay renders.
	_ = json.Unmarshal(body, resp)

	rec.child(trace, parent, "fgservice", "json_decode", 1, func() { decodeStrict(o.body, req) })
	key := string(o.body)
	switch path {
	case "/predict":
		if cacheHit {
			k.predictHit(key) // make it resident, untimed
			rec.child(trace, parent, "servecache", "get_hit", 8, func() { k.predictHit(key) })
		} else {
			rec.child(trace, parent, "servecache", "get_miss_fill", 1, k.predictMissFill)
			rec.child(trace, parent, "core", "predict", 8, func() { _, _ = k.pred.Predict(k.cfg, core.GlobalReduction) })
		}
	case "/select":
		if cacheHit {
			k.selectHit(key)
			rec.child(trace, parent, "servecache", "get_hit", 8, func() { k.selectHit(key) })
		} else {
			rec.child(trace, parent, "servecache", "get_miss_fill", 1, k.predictMissFill)
			rec.child(trace, parent, "grid", "rank_steady", 1, func() { _, _ = k.rank() })
		}
	case "/observe":
		site := fgservice.DefaultSites()[0]
		rec.child(trace, parent, "grid", "bwest_observe_estimate", 1, func() {
			_ = k.est.Observe(site.Name, site.Cluster, observeSample)
			_, _, _ = k.est.Estimate(site.Name, site.Cluster)
		})
	case "/runs":
		rec.child(trace, parent, "profile", "ingest", 1, func() { _, _ = k.store.Ingest(k.obs) })
	default:
		k.predictHit("batch-item")
		rec.child(trace, parent, "workpool", "run64_cache_hits", 1, func() {
			k.pool.Run(batchItems, 0, func(int) { k.predictHit("batch-item") })
		})
	}
	rec.child(trace, parent, "fgservice", "json_encode", 1, func() { k.encode(resp) })
	rec.child(trace, parent, "reqtrace", "trace_request", 4, k.traceRequest)
	rec.child(trace, parent, "metrics", "request_instruments", 8, k.requestInstruments)
}

// serverCounters reads what the program exports about itself around a
// pass: the response caches' counters and the default metrics registry.
type serverCounters struct {
	predHits, predMisses, selHits, selMisses float64
	evictions, invalidations, coalesced      float64
	engineReused, engineRecomputed, rebuilds float64
	recalibrations                           float64
	throttled, errors                        float64
	storeVersion                             uint64
}

var servedPaths = []string{"/predict", "/predict/batch", "/select", "/select/batch", "/observe", "/runs"}

func readServerCounters(s *fgservice.Server) serverCounters {
	p, sel := s.CacheStats()
	c := serverCounters{
		predHits: p.Hits, predMisses: p.Misses, selHits: sel.Hits, selMisses: sel.Misses,
		evictions:        p.Evictions + sel.Evictions,
		invalidations:    p.Invalidations + sel.Invalidations,
		coalesced:        p.Coalesced + sel.Coalesced,
		engineReused:     metrics.GetCounter("fg_rank_engine_reused_total", "").Value(),
		engineRecomputed: metrics.GetCounter("fg_rank_engine_recomputed_total", "").Value(),
		rebuilds:         metrics.GetCounter("fg_rank_engine_rebuilds_total", "").Value(),
		recalibrations:   metrics.GetCounter("fg_profile_recalibrations_total", "").Value(),
		storeVersion:     s.Store().Snapshot().Version(),
	}
	for _, path := range servedPaths {
		label := metrics.Label{Key: "path", Value: path}
		c.throttled += metrics.GetCounter("fg_http_throttled_total", "", label).Value()
		c.errors += metrics.GetCounter("fg_http_errors_total", "", label).Value()
	}
	return c
}

// share is part / (part + rest), 0 when both are 0 — a hit share from
// hit and miss counts.
func share(part, rest float64) float64 {
	if part+rest == 0 {
		return 0
	}
	return part / (part + rest)
}

// occupySpareCores spins one goroutine on every core but one until the
// returned stop function is called. A lone in-process client leaves the
// other core idle, and the per-request goroutine hand-off inside the
// service then races with that core's wake-up: the handler goroutine
// either runs next on the client's own core (~20 us per exchange on the
// sizing machine) or is stolen by the core being woken (~30-50 us), and
// which of the two a run settles into changes from one probe to the
// next — by more than the layer differences the probes exist to show.
// With the spare core occupied there is nobody to steal it, which is
// also the regime of the two-client workloads, where both cores are
// busy. Only singular in-process ops are measured this way: batches fan
// out over the cores and TCP needs them for the network poller.
func occupySpareCores() (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	for i := 1; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
			}
		}()
	}
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

// singlePass drives one client through up to n ops of the schedule in a
// closed loop, or until budget has passed. With a replayer it records a
// root span per op and replays the op's layer calls under it.
func singlePass(c *client, srv *server, sched []op, chk checker, n int, budget time.Duration, rp *replayer) time.Duration {
	inproc := newInprocTarget(srv.handler)
	_, isTCP := c.tgt.(*tcpTarget)
	start := time.Now()
	deadline := start.Add(budget)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		o := &sched[c.pos%len(sched)]
		c.pos++
		var ph0, sh0 float64
		if rp != nil {
			p, s := srv.srv.CacheStats()
			ph0, sh0 = p.Hits, s.Hits
		}
		t0 := time.Now()
		status, body, err := c.tgt.do(o)
		t1 := time.Now()
		c.attempted++
		if err != nil {
			c.fail("%s transport error: %v", o.url.Path, err)
			continue
		}
		if !chk(c, o, status, body) {
			continue
		}
		if len(c.samples) < cap(c.samples) {
			c.samples = append(c.samples, packSample(t1.Sub(t0), o.kind))
		}
		if rp == nil {
			continue
		}
		p, s := srv.srv.CacheStats()
		hit := p.Hits > ph0 || s.Hits > sh0
		trace := uint32(i + 1)
		start := int64(t0.Sub(rp.rec.t0))
		end := int64(t1.Sub(rp.rec.t0))
		if !isTCP {
			root := rp.rec.add(trace, 0, "fgservice", o.url.Path, start, end)
			rp.replayHandler(trace, root, o, body, hit)
			continue
		}
		// Over TCP the root is the whole loopback exchange; the handler
		// is its one child, replayed in-process, so the root's self time
		// is the transport's.
		root := rp.rec.add(trace, 0, "transport", o.url.Path, start, end)
		h0 := rp.rec.now()
		_, hbody, _ := inproc.do(o)
		h1 := rp.rec.now()
		handler := rp.rec.add(trace, root, "fgservice", "handler", h0, h1)
		rp.replayHandler(trace, handler, o, hbody, true)
	}
	return time.Since(start)
}

// runTraced is one traced run of any workload.
func runTraced(cfg runConfig, g goldens) (*report, error) {
	rep := newReport()
	kit, err := newLayerKit()
	if err != nil {
		return nil, fmt.Errorf("layer kit: %w", err)
	}
	rec := newSpanRecorder(8 * tracedOps)
	conns := &connStats{}
	if cfg.workload == wlSweep {
		err = tracedSweep(cfg, rep, rec)
	} else {
		err = tracedServe(cfg, rep, kit, rec, conns)
	}
	if err != nil {
		return nil, err
	}
	path, err := rec.writeJSONL(cfg.outDir, cfg.workload)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rep.note("wrote %d spans to %s; self time per layer over the traced pass:", len(rec.spans), path)
	rep.notes = append(rep.notes, rec.summary()...)

	if err := kit.probeLayers(rep.values); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := probeService(rep, cfg.seed, kit, conns); err != nil {
		return nil, fmt.Errorf("service probes: %w", err)
	}
	rep.values["transport.conn_reuse_share"] = conns.reuseShare()
	rep.values["process.goroutines_end"] = float64(runtime.NumGoroutine())
	return rep, nil
}

// tracedServe runs the two single-client passes of a serve workload and
// derives the workload-observed per-layer metrics from the plain one.
func tracedServe(cfg runConfig, rep *report, kit *layerKit, rec *spanRecorder, conns *connStats) error {
	tcp := cfg.workload == wlHotTCP
	srv, _, err := startServer(fgservedOptions(), tcp, conns)
	if err != nil {
		return err
	}
	defer srv.close()
	w, err := prepareServe(cfg)
	if err != nil {
		return err
	}
	rep.digest = w.digest
	clients, backing := newClients(1, 2*tracedOps, func() target { return srv.newTarget(conns) })
	c := clients[0]
	defer c.tgt.close()
	w.pretouchAll(rep, c)
	spinners := 0
	if cfg.workload == wlHotInproc || cfg.workload == wlChurnInproc {
		defer occupySpareCores()()
		spinners = runtime.GOMAXPROCS(0) - 1
	}
	budget := time.Duration(cfg.seconds / 4 * float64(time.Second))
	singlePass(c, srv, w.sched, w.chk, tracedOps/10, budget, nil) // warm-up
	c.samples, c.attempted = c.samples[:0], 0

	c0, p0 := readServerCounters(srv.srv), readProc()
	wall := singlePass(c, srv, w.sched, w.chk, tracedOps, budget, nil)
	used, c1 := readProc().since(p0), readServerCounters(srv.srv)
	// The occupied spare cores spin for the whole pass; their CPU is the
	// benchmark's, not the op's.
	used.cpu -= time.Duration(spinners) * wall
	plainOps := c.attempted
	plain := gatherSamples(clients, backing)
	if len(plain) == 0 {
		return fmt.Errorf("%s: no op of the plain pass succeeded: %s", cfg.workload, c.firstFailure)
	}
	plainP50 := sampleNanos(quantile(plain, 0.5))
	p999, tailQ := tailQuantile(plain, 0.999, 0.99)
	predP50, _ := kindQuantile(plain, kindPredict, 0.5)
	selP50, _ := kindQuantile(plain, kindSelect, 0.5)

	v := rep.values
	v["servecache.hit_share_predict"] = share(c1.predHits-c0.predHits, c1.predMisses-c0.predMisses)
	v["servecache.hit_share_select"] = share(c1.selHits-c0.selHits, c1.selMisses-c0.selMisses)
	v["servecache.evictions"] = c1.evictions - c0.evictions
	v["servecache.invalidations"] = c1.invalidations - c0.invalidations
	v["servecache.coalesced"] = c1.coalesced - c0.coalesced
	v["grid.engine_reused_share"] = share(c1.engineReused-c0.engineReused, c1.engineRecomputed-c0.engineRecomputed)
	v["grid.engine_rebuilds"] = c1.rebuilds - c0.rebuilds
	v["profile.recalibrations"] = c1.recalibrations - c0.recalibrations
	v["profile.store_version_moves"] = float64(c1.storeVersion - c0.storeVersion)
	v["fgservice.throttled_total"] = c1.throttled - c0.throttled
	v["fgservice.errors_total"] = c1.errors - c0.errors
	v["fgservice.predict_p50_us"] = float64(predP50) / 1e3
	v["fgservice.select_p50_us"] = float64(selP50) / 1e3
	v["process.allocs_per_op"] = float64(used.mallocs) / float64(plainOps)
	v["process.alloc_bytes_per_op"] = float64(used.allocBytes) / float64(plainOps)
	v["process.gc_pause_total_ms"] = float64(used.gcPause) / 1e6
	v["process.cpu_us_per_op"] = float64(used.cpu.Microseconds()) / float64(plainOps)
	v["process.latency_p999_ms"] = float64(sampleNanos(p999)) / 1e6

	c.samples = c.samples[:0]
	singlePass(c, srv, w.sched, w.chk, tracedOps, budget, &replayer{kit: kit, rec: rec})
	traced := gatherSamples(clients, backing)
	if len(traced) == 0 {
		return fmt.Errorf("%s: no op of the traced pass succeeded: %s", cfg.workload, c.firstFailure)
	}
	v["process.trace_overhead_share"] = float64(sampleNanos(quantile(traced, 0.5)))/float64(plainP50) - 1

	rep.attempted, rep.failed = c.attempted, c.failed
	if c.firstFailure != "" {
		rep.problem("%s", c.firstFailure)
	}
	rep.note("traced run of %s seed %d: schedule checksum %s, one client, %d ops plain (p50 %.4f ms; process.latency_p999_ms is their %v quantile) then %d ops with spans",
		cfg.workload, cfg.seed, w.checksum(), plainOps, float64(plainP50)/1e6, tailQ, len(traced))
	return nil
}

// tracedSweep runs the figure sweep plain and then with spans: a root
// span around the parallel RunAll and, replayed after it on a serial
// harness, one child per figure.
func tracedSweep(cfg runConfig, rep *report, rec *spanRecorder) error {
	serial, _, _, err := runSweepOnce(1)
	if err != nil {
		return err
	}
	rep.digest = serial.digest
	checkedSweep := func() (time.Duration, error) {
		out, runAll, _, err := runSweepOnce(0)
		rep.attempted++
		if err == nil && out != serial {
			rep.failed++
			rep.problem("parallel sweep differs from SetParallelism(1)")
		}
		return runAll, err
	}
	p0 := readProc()
	var plain []float64
	for i := 0; i < 2; i++ {
		runAll, err := checkedSweep()
		if err != nil {
			return err
		}
		plain = append(plain, runAll.Seconds())
	}
	used := readProc().since(p0)

	start := rec.now()
	runAll, err := checkedSweep()
	if err != nil {
		return err
	}
	root := rec.add(1, 0, "bench", "run_all", start, rec.now())
	h, err := bench.NewHarness()
	if err != nil {
		return err
	}
	h.SetParallelism(1)
	for _, id := range bench.FigureIDs() {
		var ferr error
		rec.child(1, root, "bench", id, 1, func() { _, ferr = h.Run(id) })
		if ferr != nil {
			return ferr
		}
	}

	v := rep.values
	for _, name := range []string{
		"servecache.hit_share_predict", "servecache.hit_share_select", "servecache.evictions",
		"servecache.invalidations", "servecache.coalesced", "grid.engine_reused_share", "grid.engine_rebuilds",
		"profile.recalibrations", "profile.store_version_moves", "fgservice.throttled_total",
		"fgservice.errors_total", "fgservice.predict_p50_us", "fgservice.select_p50_us",
	} {
		v[name] = 0 // the sweep sends the service nothing
	}
	slices.Sort(plain)
	v["process.allocs_per_op"] = float64(used.mallocs) / 2
	v["process.alloc_bytes_per_op"] = float64(used.allocBytes) / 2
	v["process.gc_pause_total_ms"] = float64(used.gcPause) / 1e6
	v["process.cpu_us_per_op"] = float64(used.cpu.Microseconds()) / 2
	v["process.latency_p999_ms"] = 1e3 * plain[len(plain)-1]
	v["process.trace_overhead_share"] = runAll.Seconds()/quantile(plain, 0.5) - 1
	rep.note("traced run of %s: 2 plain sweeps (median %.4fs), then one with spans (%.4fs) and its figures replayed serially",
		cfg.workload, quantile(plain, 0.5), runAll.Seconds())
	return nil
}

// probeOps are the hot ops the service probes replay: every kmeans
// /predict and /select of the hot vocabulary.
func probeOps(voc *vocabulary) (preds, sels []op) {
	for _, o := range voc.ops {
		if !strings.Contains(string(o.body), `"app":"`+kitApp+`"`) {
			continue
		}
		if o.kind == kindPredict {
			preds = append(preds, o)
		} else {
			sels = append(sels, o)
		}
	}
	return preds, sels
}

// handlerP50 is the median in-process exchange time of n ops drawn
// cyclically from ops, after one untimed pass over them.
func handlerP50(h http.Handler, ops []op, n int) float64 {
	tgt := newInprocTarget(h)
	for i := range ops {
		_, _, _ = tgt.do(&ops[i])
	}
	lat := make([]int64, n)
	for i := range lat {
		t0 := time.Now()
		_, _, _ = tgt.do(&ops[i%len(ops)])
		lat[i] = int64(time.Since(t0))
	}
	return float64(median(lat)) / 1e3
}

const probeHandlerOps = 4000

// probeService measures the service from outside in the shapes the
// layer budget needs: the handler with everything on, with tracing off,
// with the cache off; one hot op decomposed into replayed children; its
// allocations; the batch plane against 64 singular calls; loopback
// against in-process; and the program's own handler span as a
// cross-check on the benchmark's.
func probeService(rep *report, seed int64, kit *layerKit, conns *connStats) error {
	v := rep.values
	voc := hotVocabulary()
	preds, sels := probeOps(voc)
	variant := func(mod func(*fgservice.Options)) (*server, error) {
		opts := fgservedOptions()
		mod(&opts)
		s, _, err := startServer(opts, false, nil)
		return s, err
	}
	def, err := variant(func(*fgservice.Options) {})
	if err != nil {
		return err
	}
	notrace, err := variant(func(o *fgservice.Options) { o.TraceSample = -1 })
	if err != nil {
		return err
	}
	nocache, err := variant(func(o *fgservice.Options) { o.DisableCache = true })
	if err != nil {
		return err
	}
	release := occupySpareCores()
	v["fgservice.handler_predict_notrace_p50_us"] = handlerP50(notrace.handler, preds, probeHandlerOps)
	v["fgservice.handler_select_notrace_p50_us"] = handlerP50(notrace.handler, sels, probeHandlerOps)
	v["fgservice.handler_predict_nocache_p50_us"] = handlerP50(nocache.handler, preds, probeHandlerOps)
	v["fgservice.handler_select_nocache_p50_us"] = handlerP50(nocache.handler, sels, probeHandlerOps)

	// The default server's handler, decomposed: a root span per op and
	// the op's layer calls replayed under it. Root minus children is the
	// glue — limiter, context, the goroutine hand-off, the buffered
	// flush, key rendering, validation.
	rec := newSpanRecorder(8 * 2 * probeHandlerOps)
	rp := &replayer{kit: kit, rec: rec}
	tgt := newInprocTarget(def.handler)
	for _, ops := range [][]op{preds, sels} {
		for i := range ops {
			_, _, _ = tgt.do(&ops[i])
		}
		for i := 0; i < probeHandlerOps; i++ {
			o := &ops[i%len(ops)]
			t0 := rec.now()
			_, body, _ := tgt.do(o)
			t1 := rec.now()
			trace := uint32(len(rec.spans) + 1)
			root := rec.add(trace, 0, "fgservice", o.url.Path, t0, t1)
			rp.replayHandler(trace, root, o, body, true)
		}
	}
	self := rec.selfTimes()
	us := func(ns []int64) float64 { return float64(median(ns)) / 1e3 }
	v["fgservice.handler_predict_p50_us"] = us(rec.durations("fgservice", "/predict", ""))
	v["fgservice.handler_select_p50_us"] = us(rec.durations("fgservice", "/select", ""))
	v["fgservice.json_decode_predict_us"] = us(rec.durations("fgservice", "json_decode", "/predict"))
	v["fgservice.json_encode_predict_us"] = us(rec.durations("fgservice", "json_encode", "/predict"))
	v["fgservice.json_decode_select_us"] = us(rec.durations("fgservice", "json_decode", "/select"))
	v["fgservice.json_encode_select_us"] = us(rec.durations("fgservice", "json_encode", "/select"))
	v["fgservice.glue_predict_self_us"] = us(self[spanKey{"fgservice", "/predict"}])
	v["fgservice.glue_select_self_us"] = us(self[spanKey{"fgservice", "/select"}])
	v["reqtrace.overhead_predict_us"] = v["fgservice.handler_predict_p50_us"] - v["fgservice.handler_predict_notrace_p50_us"]
	rep.note("one hot /predict and /select on a default server, decomposed (replayed children; per op, children + glue = handler span):")
	rep.notes = append(rep.notes, rec.summary()...)

	// The program's own trace of the same requests: the handler span of
	// the last /predict requests in its ring.
	for i := 0; i < 300; i++ { // fill the 256-trace ring with /predict only
		_, _, _ = tgt.do(&preds[i%len(preds)])
	}
	_, body := tgt.get("/debug/requests")
	var ring reqtrace.RingSnapshot
	if err := json.Unmarshal(body, &ring); err != nil {
		return fmt.Errorf("decoding /debug/requests: %w", err)
	}
	var spans []int64
	for _, r := range ring.Recent {
		for _, sp := range r.Spans {
			if r.Path == "/predict" && sp.Name == "handler" {
				spans = append(spans, int64(sp.DurationNs))
			}
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("/debug/requests holds no /predict handler span")
	}
	v["reqtrace.handler_span_p50_us"] = us(spans)
	v["reqtrace.handler_span_ratio"] = v["reqtrace.handler_span_p50_us"] / v["fgservice.handler_predict_p50_us"]

	// Allocations of one hot request, everything included.
	i := 0
	v["fgservice.allocs_per_predict"], v["fgservice.bytes_per_predict"] = allocsPerCall(2000, func() { i++; _, _, _ = tgt.do(&preds[i%len(preds)]) })
	v["fgservice.allocs_per_select"], v["fgservice.bytes_per_select"] = allocsPerCall(2000, func() { i++; _, _, _ = tgt.do(&sels[i%len(sels)]) })
	release()

	// The batch plane: one 64-item batch against the same 64 items sent
	// one by one.
	batches := batchSchedule(voc, 1, 2)
	for bi, name := range []string{"predict", "select"} {
		b := &batches[bi]
		singles := preds
		if bi == 1 {
			singles = sels
		}
		_, _, _ = tgt.do(b)
		v["fgservice.batch64_"+name+"_p50_us"] = perCall(15, 20, func() { _, _, _ = tgt.do(b) }) / 1e3
		v["fgservice.seq64_"+name+"_us"] = perCall(15, 20, func() {
			for j := 0; j < batchItems; j++ {
				_, _, _ = tgt.do(&singles[j%len(singles)])
			}
		}) / 1e3
	}
	return probeTransport(rep, seed, def, preds, conns)
}

// openLoopSeconds is how long the open-loop probe offers its load.
const openLoopSeconds = 2

// maxOpenLoopBacklog is the most due-but-unsent ops the open loop may
// have waiting on one connection before the probe declares the offered
// rate too high for the machine: 0.2 s of that connection's traffic.
const maxOpenLoopBacklog = openLoopRate / numClients / 5

// probeTransport measures host loopback against in-process on the same
// hot ops — closed loop on one keep-alive connection — and then offers
// them in an open loop, seeded Poisson arrivals at openLoopRate on two
// connections: the latency a remote scheduler sees from the moment it
// wanted to send, how late the generator ran, and the backlog.
func probeTransport(rep *report, seed int64, def *server, preds []op, conns *connStats) error {
	v := rep.values
	ln, err := listen(def.handler, fgservedOptions().RequestTimeout)
	if err != nil {
		return err
	}
	defer ln.shutdown()
	tcp := newTCPTarget(ln.addr, conns)
	defer tcp.close()
	const n = 3000
	lat := make([]int64, 0, n)
	for i := 0; i < n+100; i++ {
		t0 := time.Now()
		status, _, err := tcp.do(&preds[i%len(preds)])
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("loopback probe: status %d: %v", status, err)
		}
		if i >= 100 {
			lat = append(lat, int64(time.Since(t0)))
		}
	}
	v["transport.rtt_self_p50_us"] = float64(median(lat))/1e3 - v["fgservice.handler_predict_p50_us"]

	arrivals := poissonArrivals(seed, openLoopRate, openLoopRate*openLoopSeconds)
	clients, _ := newClients(numClients, len(arrivals), func() target { return newTCPTarget(ln.addr, conns) })
	for _, c := range clients {
		c.late = make([]uint32, 0, len(arrivals))
		_, _, _ = c.tgt.do(&preds[0]) // dial before the first due time
	}
	runOpen(clients, preds, arrivals)
	for _, c := range clients {
		c.tgt.close()
	}
	open := summarizeOpenLoop(clients)
	v["transport.open_p50_ms"] = open.p50ms
	v["transport.open_p99_ms"] = open.p99ms
	v["transport.late_send_p99_ms"] = open.lateP99ms
	v["transport.backlog_max"] = float64(open.backlogMax)
	rep.note("open loop over host loopback (not a link): %d /predict at %d req/s offered (Poisson, arrivals checksum %s) on %d connections, latency from the scheduled send time p50 %.4f ms p99 %.4f ms; send lateness p50 %.4f ms p99 %.4f ms, backlog max %d",
		len(arrivals), openLoopRate, fingerprint(nil, arrivals), numClients, open.p50ms, open.p99ms, open.lateP50ms, open.lateP99ms, open.backlogMax)
	if open.failed > 0 {
		rep.problem("open loop: %d of %d ops failed: %s", open.failed, len(arrivals), open.firstFailure)
	}
	if open.backlogMax > maxOpenLoopBacklog {
		rep.problem("open loop overloaded: %d due ops waited on one connection (limit %d); %d req/s is too high for this machine",
			open.backlogMax, maxOpenLoopBacklog, openLoopRate)
	}
	return nil
}
