package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/fgservice"
	"freerideg/internal/grid"
	"freerideg/internal/metrics"
	"freerideg/internal/middleware"
	"freerideg/internal/profile"
	"freerideg/internal/reqtrace"
	"freerideg/internal/servecache"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
	"freerideg/internal/workpool"
)

// layerKit holds one instance of every layer beneath the handlers,
// built through the layers' public constructors exactly as fgservice
// builds its own: the objects the traced run replays an op's layer
// calls on, and the microbenchmarks time. Nothing here reaches into the
// server under test.
type layerKit struct {
	harness *bench.Harness
	base    core.Profile // kmeans on the service's self-profiling base
	model   core.AppModel
	pred    *core.Predictor
	cfg     core.Config // a representative /predict target

	predCache *servecache.Cache[fgservice.PredictResponse]
	selCache  *servecache.Cache[fgservice.SelectResponse]
	missSeq   uint64

	engine  *grid.RankEngine
	svc     *grid.Service
	dataset string
	ranked  []grid.Candidate

	store *profile.Store
	src   *profile.Source
	obs   profile.Observation
	est   *grid.BandwidthEstimator
	pool  *workpool.Pool
	ring  *reqtrace.Ring

	requests, cacheHits *metrics.Counter
	latency             *metrics.Histogram
	inflight            *metrics.Gauge

	encBuf bytes.Buffer
	enc    *json.Encoder
}

const kitApp = "kmeans"

// observeSample is the transfer the estimator replays and probes ingest.
var observeSample = grid.TransferSample{Bytes: 32 * units.MB, Elapsed: 400 * time.Millisecond}

func newLayerKit() (*layerKit, error) {
	k := &layerKit{
		engine: grid.NewRankEngine(),
		est:    grid.NewBandwidthEstimator(0),
		pool:   workpool.New(0),
		ring:   reqtrace.NewRing(0),
		// Caches and instruments carry names of their own, so replays
		// never move the counters of the server under test.
		predCache: servecache.New[fgservice.PredictResponse](servecache.Options{Name: "benchmark-predict"}),
		selCache:  servecache.New[fgservice.SelectResponse](servecache.Options{Name: "benchmark-select"}),
		requests:  metrics.GetCounter("fg_benchmark_replay_requests_total", "Requests replayed by the benchmark's layer kit."),
		cacheHits: metrics.GetCounter("fg_benchmark_replay_second_total", "Second counter of a replayed request."),
		latency:   metrics.GetHistogram("fg_benchmark_replay_seconds", "Latency histogram of a replayed request.", nil),
		inflight:  metrics.GetGauge("fg_benchmark_replay_inflight", "In-flight gauge of a replayed request."),
	}
	k.enc = json.NewEncoder(&k.encBuf)
	k.enc.SetIndent("", "  ")

	var err error
	if k.harness, err = bench.NewHarness(); err != nil {
		return nil, err
	}
	a, err := apps.Get(kitApp)
	if err != nil {
		return nil, err
	}
	k.model = a.Model
	opts := fgservedOptions()
	baseCfg := core.Config{Cluster: bench.PentiumCluster, DataNodes: opts.BaseDataNodes, ComputeNodes: opts.BaseComputeNodes,
		Bandwidth: opts.BaseBandwidth, DatasetBytes: opts.BaseBytes}
	res, err := k.harness.Simulate(context.Background(), kitApp, opts.BaseBytes, bench.ChunkFor(opts.BaseBytes), baseCfg)
	if err != nil {
		return nil, err
	}
	k.base = res.Profile
	k.cfg = core.Config{Cluster: bench.PentiumCluster, DataNodes: 2, ComputeNodes: 4, Bandwidth: 100 * units.MBPerSec, DatasetBytes: 64 * units.MB}

	if k.store, err = profile.NewStore(core.ProfileStore{}, profile.Options{Lookup: fgservice.AppModelLookup}); err != nil {
		return nil, err
	}
	k.store.SeedLinks(k.harness.Links())
	k.obs = profile.FromProfile(k.base)
	if _, err := k.store.Ingest(k.obs); err != nil {
		return nil, err
	}
	k.src = k.store.NewSource(kitApp, k.model)
	if k.pred, err = k.src.Predictor(); err != nil {
		return nil, err
	}

	// The selection topology fgservice builds per dataset: both demo
	// sites' replicas, their static bandwidths, the three demo offers.
	spec, err := bench.Dataset(kitApp, 64*units.MB)
	if err != nil {
		return nil, err
	}
	k.dataset = spec.Name
	k.svc = grid.NewService()
	for _, site := range fgservice.DefaultSites() {
		layout, err := adr.Partition(spec, site.StorageNodes, adr.RoundRobin)
		if err != nil {
			return nil, err
		}
		if err := k.svc.Replicas.Register(adr.Replica{Site: site.Name, Cluster: site.Cluster, StorageNodes: site.StorageNodes, Layout: layout}); err != nil {
			return nil, err
		}
		if err := k.svc.SetBandwidth(site.Name, site.Cluster, site.Bandwidth); err != nil {
			return nil, err
		}
		for i := 0; i < 4; i++ {
			if err := k.est.Observe(site.Name, site.Cluster, grid.TransferSample{Bytes: units.Bytes(8+8*i) * units.MB, Elapsed: time.Duration(100+80*i) * time.Millisecond}); err != nil {
				return nil, err
			}
		}
	}
	for _, off := range fgservice.DefaultOffers() {
		if err := k.svc.AddOffer(off); err != nil {
			return nil, err
		}
	}
	if k.ranked, err = k.rank(); err != nil {
		return nil, err
	}
	return k, nil
}

func (k *layerKit) rank() ([]grid.Candidate, error) {
	return k.engine.Rank(context.Background(), k.svc, k.dataset, k.pred, core.GlobalReduction, 1)
}

// The replayed layer calls. Each mirrors what the handler stack does
// for one request, through the same public functions.

// decode is decodeJSON's work: a strict streaming decode of the body.
func decodeStrict(body []byte, into any) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	_ = dec.Decode(into)
}

// encode is writeJSON's work: an indented encode into a reused buffer.
func (k *layerKit) encode(v any) {
	k.encBuf.Reset()
	_ = k.enc.Encode(v)
}

func (k *layerKit) predictHit(key string) {
	_, _ = k.predCache.Get(context.Background(), key, 1, func(context.Context) (fgservice.PredictResponse, error) {
		return fgservice.PredictResponse{}, nil
	})
}

// predictMissFill looks up a key never seen before; once the cache has
// reached its capacity every such fill also evicts.
func (k *layerKit) predictMissFill() {
	k.missSeq++
	_, _ = k.predCache.Get(context.Background(), "miss|"+strconv.FormatUint(k.missSeq, 10), 1, func(context.Context) (fgservice.PredictResponse, error) {
		return fgservice.PredictResponse{}, nil
	})
}

func (k *layerKit) selectHit(key string) {
	_, _ = k.selCache.Get(context.Background(), key, 1, func(context.Context) (fgservice.SelectResponse, error) {
		return fgservice.SelectResponse{}, nil
	})
}

// traceRequest is one traced request's reqtrace work: a trace, the
// handler span, two leaf children, Finish, and the ring insert.
func (k *layerKit) traceRequest() {
	tr := reqtrace.New("fg-benchmark-1", "/predict")
	ctx := reqtrace.WithTrace(context.Background(), tr)
	ctx, hs := reqtrace.StartSpan(ctx, "handler")
	reqtrace.Child(ctx, "decode").End()
	reqtrace.Child(ctx, "encode").End()
	hs.End()
	k.ring.Add(tr.Finish(200, time.Microsecond))
}

// requestInstruments is the metric work of one request: two counters,
// one histogram observation, two gauge moves.
func (k *layerKit) requestInstruments() {
	k.requests.Inc()
	k.inflight.Add(1)
	k.cacheHits.Inc()
	k.latency.Observe(20e-6)
	k.inflight.Add(-1)
}

// perCall times fn in rounds batches of n calls — steady state, set-up
// outside the loop — and returns the median batch's nanoseconds per
// call.
func perCall(rounds, n int, fn func()) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// allocsPerCall is the mean allocation count and bytes of one call.
func allocsPerCall(n int, fn func()) (allocs, bytesPer float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// probeLayers times every layer beneath the handlers through its public
// functions. The results do not depend on the workload or the seed.
func (k *layerKit) probeLayers(v map[string]float64) error {
	// servecache: a hit, and a miss with fill at capacity.
	k.predictHit("probe")
	v["servecache.get_hit_ns"] = perCall(9, 20000, func() { k.predictHit("probe") })
	for i := 0; i < servecache.DefaultMaxEntries; i++ {
		k.predictMissFill()
	}
	v["servecache.get_miss_fill_ns"] = perCall(9, 5000, k.predictMissFill)

	// core: the prediction arithmetic and building a predictor.
	v["core.predict_ns"] = perCall(9, 20000, func() { _, _ = k.pred.Predict(k.cfg, core.GlobalReduction) })
	v["core.predict_allocs"], _ = allocsPerCall(5000, func() { _, _ = k.pred.Predict(k.cfg, core.GlobalReduction) })
	v["core.new_predictor_ns"] = perCall(9, 2000, func() { _, _ = core.NewPredictor(k.base, k.model) })

	// grid: a ranking round with nothing changed, with one path's
	// bandwidth changed, and with a new predictor; planning; the
	// bandwidth estimator.
	if _, err := k.rank(); err != nil {
		return err
	}
	v["grid.rank_steady_ns"] = perCall(9, 5000, func() { _, _ = k.rank() })
	site := fgservice.DefaultSites()[0]
	flip := false
	v["grid.rank_one_bw_changed_ns"] = perCall(9, 2000, func() {
		flip = !flip
		bw := site.Bandwidth
		if flip {
			bw /= 2
		}
		_ = k.svc.SetBandwidth(site.Name, site.Cluster, bw)
		_, _ = k.rank()
	})
	_ = k.svc.SetBandwidth(site.Name, site.Cluster, site.Bandwidth)
	preds := [2]*core.Predictor{k.pred, nil}
	var err error
	if preds[1], err = k.store.Snapshot().Predictor(kitApp, k.model); err != nil {
		return err
	}
	i := 0
	v["grid.rank_predictor_changed_ns"] = perCall(9, 2000, func() {
		i++
		_, _ = k.engine.Rank(context.Background(), k.svc, k.dataset, preds[i%2], core.GlobalReduction, 1)
	})
	v["grid.plan_from_ranked_ns"] = perCall(9, 20000, func() { _, _ = grid.PlanFromRanked(k.ranked, 2*time.Hour) })
	v["grid.bwest_observe_ns"] = perCall(9, 20000, func() { _ = k.est.Observe(site.Name, site.Cluster, observeSample) })
	v["grid.bwest_estimate_ns"] = perCall(9, 5000, func() { _, _, _ = k.est.Estimate(site.Name, site.Cluster) })

	// profile: snapshot resolution, ingesting an on-model observation
	// (no drift, so no recalibration), and the per-version predictor
	// source.
	v["profile.snapshot_ns"] = perCall(9, 50000, func() { _ = k.store.Snapshot().Version() })
	ingestStore, err := profile.NewStore(core.ProfileStore{}, profile.Options{Lookup: fgservice.AppModelLookup, DisableAutoRecalibrate: true})
	if err != nil {
		return err
	}
	if _, err := ingestStore.Ingest(k.obs); err != nil {
		return err
	}
	v["profile.ingest_ns"] = perCall(5, 400, func() { _, _ = ingestStore.Ingest(k.obs) })
	v["profile.source_predictor_ns"] = perCall(9, 20000, func() { _, _ = k.src.Predictor() })

	// workpool: a 64-item fan-out of empty work, pooled and serial.
	noop := func(int) {}
	v["workpool.run64_noop_ns"] = perCall(9, 2000, func() { k.pool.Run(batchItems, 0, noop) })
	v["workpool.run64_limit1_ns"] = perCall(9, 20000, func() { k.pool.Run(batchItems, 1, noop) })

	// reqtrace and metrics: what one request costs in each.
	v["reqtrace.trace_request_ns"] = perCall(9, 10000, k.traceRequest)
	v["reqtrace.untraced_child_ns"] = perCall(9, 50000, func() { reqtrace.Child(context.Background(), "decode").End() })
	v["metrics.request_instruments_ns"] = perCall(9, 50000, k.requestInstruments)
	v["metrics.scrape_ms"] = perCall(5, 20, func() { _ = metrics.Default().Expose() }) / 1e6

	if err := k.probeSimulator(v); err != nil {
		return err
	}
	return k.probeSweep(v)
}

// probeSimulator times the simulated middleware and the event engine
// under it: the service's self-profiling run, the largest figure cell,
// and a synthetic process loop on the public Engine API.
func (k *layerKit) probeSimulator(v map[string]float64) error {
	a, err := apps.Get(kitApp)
	if err != nil {
		return err
	}
	g := k.harness.Grid()
	simulate := func(total units.Bytes, dn, cn int, sink middleware.Sink) (middleware.SimResult, error) {
		spec, err := bench.DatasetChunked(kitApp, total, bench.ChunkFor(total))
		if err != nil {
			return middleware.SimResult{}, err
		}
		cost, err := a.Cost(spec)
		if err != nil {
			return middleware.SimResult{}, err
		}
		cfg := core.Config{Cluster: bench.PentiumCluster, DataNodes: dn, ComputeNodes: cn, Bandwidth: 100 * units.MBPerSec, DatasetBytes: total}
		return g.SimulateOpts(cost, spec, cfg, middleware.SimOptions{Trace: sink})
	}
	var res middleware.SimResult
	baseNs := perCall(5, 5, func() { res, err = simulate(256*units.MB, 1, 1, nil) })
	if err != nil {
		return err
	}
	v["middleware.simulate_base_ms"] = baseNs / 1e6
	v["middleware.virtual_s_per_host_ms"] = res.Makespan.Seconds() / (baseNs / 1e6)
	v["middleware.simulate_8x16_ms"] = perCall(5, 3, func() { _, err = simulate(1400*units.MB, 8, 16, nil) }) / 1e6
	if err != nil {
		return err
	}
	col := middleware.NewCollector()
	if _, err := simulate(256*units.MB, 1, 1, col); err != nil {
		return err
	}
	v["middleware.events_per_sim"] = float64(len(col.Events()))

	const events = 200_000
	v["simgrid.event_ns"] = perCall(5, 1, func() {
		e := simgrid.NewEngine()
		e.Spawn("clock", func(p *simgrid.Proc) {
			for i := 0; i < events; i++ {
				p.Wait(time.Microsecond)
			}
		})
		err = e.Run()
	}) / events
	if err != nil {
		return err
	}
	const spawns = 50_000
	v["simgrid.spawn_ns"] = perCall(5, 1, func() {
		e := simgrid.NewEngine()
		e.Spawn("parent", func(p *simgrid.Proc) {
			for i := 0; i < spawns; i++ {
				e.Spawn("child", func(c *simgrid.Proc) { c.Wait(time.Microsecond) })
				p.Wait(2 * time.Microsecond)
			}
		})
		err = e.Run()
	}) / spawns
	return err
}

// probeSweep runs the figure sweep once at default parallelism and once
// serially, figure by figure, on cold harnesses, reading the harness's
// exported simulation counters around the parallel run.
func (k *layerKit) probeSweep(v map[string]float64) error {
	started := metrics.GetCounter("fg_sim_runs_started_total", "")
	hits := metrics.GetCounter("fg_sim_cache_hits_total", "")
	s0, h0 := started.Value(), hits.Value()
	out, runAll, sims, err := runSweepOnce(0)
	if err != nil {
		return err
	}
	ds, dh := started.Value()-s0, hits.Value()-h0
	v["bench.run_all_s"] = runAll.Seconds()
	v["bench.sims_per_s"] = float64(sims) / runAll.Seconds()
	v["bench.sim_runs_started"] = ds
	v["bench.sim_memo_hits"] = dh
	v["bench.memo_hit_share"] = dh / (ds + dh)
	v["bench.pred_error_max_pct"] = out.errMaxPct
	v["bench.pred_error_mean_pct"] = out.errMean

	h, err := bench.NewHarness()
	if err != nil {
		return err
	}
	h.SetParallelism(1)
	var serial, slowest float64
	for _, id := range bench.FigureIDs() {
		t0 := time.Now()
		if _, err := h.Run(id); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		serial += d
		slowest = max(slowest, d)
	}
	v["bench.run_all_serial_s"] = serial
	v["bench.slowest_figure_s"] = slowest
	v["bench.parallel_speedup"] = serial / runAll.Seconds()

	// A memo hit: the base run the kit already simulated, asked again.
	opts := fgservedOptions()
	cfg := core.Config{Cluster: bench.PentiumCluster, DataNodes: opts.BaseDataNodes, ComputeNodes: opts.BaseComputeNodes,
		Bandwidth: opts.BaseBandwidth, DatasetBytes: opts.BaseBytes}
	v["bench.simulate_memo_hit_ns"] = perCall(9, 20000, func() {
		_, err = k.harness.Simulate(context.Background(), kitApp, opts.BaseBytes, bench.ChunkFor(opts.BaseBytes), cfg)
	})
	if err != nil {
		return fmt.Errorf("memo-hit probe: %w", err)
	}
	return nil
}
