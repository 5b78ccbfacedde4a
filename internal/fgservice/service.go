// Package fgservice implements the long-running prediction service the
// fgserved command serves: the resource-selection framework running
// inside grid middleware, answering live "which replica / which
// configuration" queries from observed state instead of forking a CLI
// per prediction. The server loads the simulated grid and the profile
// store once; request handlers only do prediction arithmetic, ranking,
// and estimator updates, so steady-state requests never re-build state.
//
// Endpoints:
//
//	POST /predict        profile + target config -> T̂_disk/T̂_network/T̂_compute
//	POST /select         dataset -> ranked (replica, configuration) candidates
//	POST /observe        feed a TransferSample into the bandwidth estimator
//	POST /runs           ingest an observed run breakdown as a calibration sample
//	GET  /profiles       live profile store content, versions, and drift state
//	GET  /healthz        liveness + readiness
//	GET  /debug/requests completed request traces (recent / slowest / errored)
//	GET  /metrics        Prometheus text exposition of the process registry
//
// Every response carries an X-FG-Request-ID header (error envelopes
// repeat it in their requestId field), and sampled requests record a
// reqtrace span tree retained for GET /debug/requests.
//
// Profiles live in a versioned profile.Store rather than a pinned
// document: observed runs posted to /runs recalibrate them, and every
// request resolves the latest snapshot.
package fgservice

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/grid"
	"freerideg/internal/profile"
	"freerideg/internal/reqtrace"
	"freerideg/internal/servecache"
	"freerideg/internal/units"
	"freerideg/internal/workpool"
)

// Site is one repository site of the service's replica topology. Its
// Bandwidth is the static b̂ used until live observations on the
// site→cluster path let the estimator override it.
type Site struct {
	Name         string
	Cluster      string
	StorageNodes int
	Bandwidth    units.Rate
}

// Options configure a Server. Zero values select the defaults noted on
// each field.
type Options struct {
	// Variant names the default prediction model variant for requests
	// that don't carry one ("nocomm", "reduction", "global"); empty
	// selects "global", the paper's most accurate.
	Variant string
	// Base profile configuration used when an application must be
	// profiled on the simulated testbed because the store has no profile
	// for it. Defaults: 1 data node, 1 compute node, 100MB/s, 256MB.
	BaseDataNodes    int
	BaseComputeNodes int
	BaseBandwidth    units.Rate
	BaseBytes        units.Bytes
	// Store is the live profile store behind every prediction. Nil
	// selects a fresh in-memory store that grows by adopting
	// self-profiled applications.
	Store *profile.Store
	// MaxInFlight bounds concurrently handled requests (default
	// 4×GOMAXPROCS); excess requests get 503.
	MaxInFlight int
	// RequestTimeout bounds one request's handling time (default 30s).
	RequestTimeout time.Duration
	// DisableCache turns the /select response cache off: every request
	// runs the full ranking path. (/predict has no response cache.) It is
	// the reference path the differential tests and the benchmark's
	// reference server compare the default server against.
	DisableCache bool
	// TraceSample selects which requests on the bounded endpoints get a
	// full reqtrace span tree: 0 (the default) traces every request,
	// n > 1 traces one in n, and any negative value disables tracing
	// entirely. Request IDs are issued regardless — sampling governs
	// only span recording.
	TraceSample int
	// TraceRing bounds the completed-trace ring served by
	// GET /debug/requests (default reqtrace.DefaultRingCapacity).
	TraceRing int
	// SlowRequestThreshold, when positive, emits a one-line structured
	// log (to SlowLogWriter) for every traced request whose total
	// latency meets or exceeds it, with the request's span breakdown.
	SlowRequestThreshold time.Duration
	// SlowLogWriter receives slow-request log lines; nil selects
	// os.Stderr. Writes are serialized by the server.
	SlowLogWriter io.Writer
}

// DefaultSites returns the demo replica topology.
func DefaultSites() []Site {
	return []Site{
		{Name: "osu-repository", Cluster: bench.PentiumCluster, StorageNodes: 4, Bandwidth: 100 * units.MBPerSec},
		{Name: "remote-mirror", Cluster: bench.PentiumCluster, StorageNodes: 8, Bandwidth: 25 * units.MBPerSec},
	}
}

// DefaultOffers returns the demo compute offers.
func DefaultOffers() []grid.ComputeOffer {
	return []grid.ComputeOffer{
		{Cluster: bench.PentiumCluster, Nodes: 4},
		{Cluster: bench.PentiumCluster, Nodes: 8},
		{Cluster: bench.PentiumCluster, Nodes: 16},
	}
}

// Server holds the loaded-once state behind the HTTP handlers.
type Server struct {
	opts    Options
	variant core.Variant
	harness *bench.Harness
	est     *grid.BandwidthEstimator
	store   *profile.Store
	start   time.Time
	lim     *limiter

	// sites and offers are the selection topology: DefaultSites and
	// DefaultOffers, the fgselect demo's.
	sites  []Site
	offers []grid.ComputeOffer

	// engine is the incremental rank engine behind /select: candidate
	// tables are cached per (dataset, variant) and only predictions
	// whose inputs changed are recomputed between requests.
	engine *grid.RankEngine

	// selMu guards the persistent per-dataset selection services.
	// Keeping one Service per dataset (instead of rebuilding per request)
	// is what lets the engine reuse its enumerated tables across requests.
	selMu   sync.Mutex
	selSvcs map[string]*selService

	// batchPool fans batch-endpoint items across persistent workers.
	// batchParallelism bounds how many items of one batch are evaluated
	// concurrently (0 = the pool's full width); tests set it to 1 after
	// New so item claiming is strictly serial and a mid-batch
	// cancellation cuts the batch at a deterministic point.
	batchPool        *workpool.Pool
	batchParallelism int

	// selectCache is the /select response cache, keyed by the rendered
	// request and pinned to the pair (store snapshot version, estEpoch).
	// Nil when Options.DisableCache is set.
	selectCache *servecache.Cache[SelectResponse]

	// estEpoch counts accepted /observe samples. Selection answers
	// depend on the live bandwidth estimator as well as the profile
	// store, so a cached ranking is identified by the pair (snapshot
	// version, epoch), each read once per request (see selectVersion).
	estEpoch atomic.Uint64

	// draining is set once shutdown begins; /healthz reports degraded.
	draining atomic.Bool

	// traceRing retains completed request traces for /debug/requests;
	// traceSeq drives 1-in-N sampling when Options.TraceSample > 1.
	traceRing *reqtrace.Ring
	traceSeq  atomic.Uint64

	// slowLog receives the one-line slow-request reports; slowLogMu
	// serializes them so concurrent slow requests don't interleave.
	slowLogMu sync.Mutex
	slowLog   io.Writer

	// delay artificially slows request handling; tests set it to park a
	// request inside the pipeline (graceful shutdown, shedding, deadline
	// and disconnect handling).
	delay time.Duration
}

// New builds a server: the simulated grid and link calibrations are
// loaded here, once, and shared by every request.
func New(opts Options) (*Server, error) {
	if opts.BaseDataNodes < 1 {
		opts.BaseDataNodes = 1
	}
	if opts.BaseComputeNodes < opts.BaseDataNodes {
		opts.BaseComputeNodes = opts.BaseDataNodes
	}
	if opts.BaseBandwidth <= 0 {
		opts.BaseBandwidth = 100 * units.MBPerSec
	}
	if opts.BaseBytes <= 0 {
		opts.BaseBytes = 256 * units.MB
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.Variant == "" {
		opts.Variant = "global"
	}
	variant, err := core.ParseVariant(opts.Variant)
	if err != nil {
		return nil, fmt.Errorf("fgservice: %w", err)
	}
	h, err := bench.NewHarness()
	if err != nil {
		return nil, fmt.Errorf("fgservice: building harness: %w", err)
	}
	store := opts.Store
	if store == nil {
		store, err = profile.NewStore(core.ProfileStore{}, profile.Options{Lookup: AppModelLookup})
		if err != nil {
			return nil, fmt.Errorf("fgservice: profile store: %w", err)
		}
	}
	// The harness's calibrated interconnects backstop clusters the store
	// has no measured link calibration for; measured values win.
	store.SeedLinks(h.Links())
	s := &Server{
		opts:      opts,
		variant:   variant,
		harness:   h,
		est:       grid.NewBandwidthEstimator(0),
		store:     store,
		start:     time.Now(),
		lim:       newLimiter(opts.MaxInFlight),
		sites:     DefaultSites(),
		offers:    DefaultOffers(),
		engine:    grid.NewRankEngine(),
		selSvcs:   make(map[string]*selService),
		batchPool: workpool.New(0),
		traceRing: reqtrace.NewRing(opts.TraceRing),
		slowLog:   opts.SlowLogWriter,
	}
	if s.slowLog == nil {
		s.slowLog = os.Stderr
	}
	if !opts.DisableCache {
		s.selectCache = servecache.New[SelectResponse](servecache.Options{Name: "select"})
	}
	return s, nil
}

// CacheStats reads the response caches' counters. predict is always
// zero: /predict no longer has a response cache (a hit saved nothing
// over the arithmetic it skipped), and the result is kept only so
// callers that read both need not change. sel is zero when the cache is
// disabled. Counter series are shared per cache name across servers in
// one process, so callers comparing runs should subtract a reading
// taken at server construction.
func (s *Server) CacheStats() (predict, sel servecache.Stats) {
	if s.selectCache != nil {
		sel = s.selectCache.Stats()
	}
	return predict, sel
}

// StartDrain flips the server into draining state: requests in flight
// keep being served (http.Server.Shutdown handles that), but /healthz
// answers 503 so load balancers and load harnesses stop sending new
// work here and can tell an orderly drain from a crash.
func (s *Server) StartDrain() { s.draining.Store(true) }

// AppModelLookup resolves an application's scaling-class model from the
// registry, the Lookup hook a service-facing profile.Store should use.
func AppModelLookup(name string) core.AppModel { return apps.Model(name) }

// Store exposes the live profile store behind the handlers.
func (s *Server) Store() *profile.Store { return s.store }

// predictor returns app's shared predictor and the snapshot it belongs
// to, both from one snapshot read: an answer computed with the predictor
// and stamped with the snapshot's version carries exactly that version's
// calibration. A known app answers from the snapshot's memo; an app the
// store lacks is first profiled (see selfProfile) and the snapshot
// re-read once it is adopted.
func (s *Server) predictor(ctx context.Context, app string, m core.AppModel) (*core.Predictor, *profile.Snapshot, error) {
	snap := s.store.Snapshot()
	if pred, err := snap.Shared(app, m); err == nil {
		return pred, snap, nil
	}
	if _, _, known := snap.Find(app); !known {
		if err := s.selfProfile(ctx, app); err != nil {
			return nil, nil, err
		}
		snap = s.store.Snapshot()
	}
	pred, err := snap.Shared(app, m)
	return pred, snap, err
}

// selfProfile profiles app by a simulated run of the base configuration
// and adopts the result into the store. Concurrent callers share one
// engine run through the harness memo, and Store.Adopt lands only the
// first profile, so the app is adopted exactly once.
//
// ctx bounds only this caller's wait. The run itself runs detached on
// its own goroutine: its result lands in the store either way, so a
// request that times out while the app self-profiles does not poison the
// coalesced waiters (or the next request) with its cancellation. The
// detached context adopts the request's trace, so a traced request shows
// the simulation as a span in its own tree.
func (s *Server) selfProfile(ctx context.Context, app string) error {
	done := make(chan error, 1)
	go func() {
		cfg := core.Config{
			Cluster:      bench.PentiumCluster,
			DataNodes:    s.opts.BaseDataNodes,
			ComputeNodes: s.opts.BaseComputeNodes,
			Bandwidth:    s.opts.BaseBandwidth,
			DatasetBytes: s.opts.BaseBytes,
		}
		res, err := s.harness.Simulate(reqtrace.Adopt(context.Background(), ctx), app, s.opts.BaseBytes, bench.ChunkFor(s.opts.BaseBytes), cfg)
		if err != nil {
			err = fmt.Errorf("fgservice: profiling %s: %w", app, err)
		} else if _, err = s.store.Adopt(profile.FromProfile(res.Profile)); err != nil {
			err = fmt.Errorf("fgservice: adopting %s profile: %w", app, err)
		}
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// pathBandwidth resolves a site→cluster path's b̂: the estimator's live
// fit when the path has enough observations, the static topology value
// otherwise. Estimate guarantees a finite positive rate on nil error.
func (s *Server) pathBandwidth(site Site) units.Rate {
	if bw, _, err := s.est.Estimate(site.Name, site.Cluster); err == nil {
		return bw
	}
	return site.Bandwidth
}

// selService is one dataset's persistent selection state: the grid
// information service (replica layouts, offers, bandwidths) built once
// and reused by every request for that dataset. Its mutex serializes
// bandwidth refresh + ranking, so the rank engine never observes a
// half-updated topology.
type selService struct {
	mu  sync.Mutex
	svc *grid.Service
	// bwEpoch is 1 + the estimator epoch the service's bandwidths were
	// last refreshed against (0 = never since build). Distinct rankings
	// at the same epoch — e.g. the items of one cold batch — share a
	// single refresh instead of re-walking every site per request.
	bwEpoch uint64
}

// selectionService returns the persistent selection service for one
// dataset spec, building (and caching) it on first use. Replica
// partitioning is the expensive part; reusing the service also gives
// the rank engine a stable topology to cache candidate tables against.
func (s *Server) selectionService(spec adr.DatasetSpec) (*selService, error) {
	s.selMu.Lock()
	if ss, ok := s.selSvcs[spec.Name]; ok {
		s.selMu.Unlock()
		return ss, nil
	}
	s.selMu.Unlock()

	// Build outside the map lock: partitioning a large dataset is real
	// work and unrelated datasets should not wait on it.
	svc := grid.NewService()
	for _, site := range s.sites {
		layout, err := adr.Partition(spec, site.StorageNodes, adr.RoundRobin)
		if err != nil {
			return nil, fmt.Errorf("fgservice: partitioning for %s: %w", site.Name, err)
		}
		if err := svc.Replicas.Register(adr.Replica{
			Site:         site.Name,
			Cluster:      site.Cluster,
			StorageNodes: site.StorageNodes,
			Layout:       layout,
		}); err != nil {
			return nil, err
		}
		if err := svc.SetBandwidth(site.Name, site.Cluster, s.pathBandwidth(site)); err != nil {
			return nil, err
		}
	}
	for _, off := range s.offers {
		if err := svc.AddOffer(off); err != nil {
			return nil, err
		}
	}

	s.selMu.Lock()
	defer s.selMu.Unlock()
	if ss, ok := s.selSvcs[spec.Name]; ok {
		// A concurrent request built it first; use that one so the rank
		// engine keys on a single Service value per dataset.
		return ss, nil
	}
	if len(s.selSvcs) >= maxSelServices {
		for k := range s.selSvcs {
			delete(s.selSvcs, k)
			break
		}
	}
	ss := &selService{svc: svc}
	s.selSvcs[spec.Name] = ss
	return ss, nil
}

// maxSelServices bounds the per-dataset service cache the same way the
// rank engine bounds its tables: the legitimate dataset vocabulary is
// small, the bound only caps hostile request streams.
const maxSelServices = 512
