package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"freerideg/internal/apps"
	"freerideg/internal/core"
	"freerideg/internal/middleware"
	"freerideg/internal/reqtrace"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

// Harness runs figure experiments on the simulated testbed. Sweeps fan
// out over a bounded worker pool (SetParallelism) and memoize repeated
// simulations; see sweep.go. A Harness is safe for concurrent sweeps:
// the grid is immutable, the cache synchronizes itself, and the worker
// pool is a shared bound.
type Harness struct {
	grid  *middleware.Grid
	links map[string]core.LinkCalibration
	par   int
	sem   chan struct{}
	cache *simCache

	obsMu sync.RWMutex
	obs   Observer
}

// Observer receives the profile of every simulated run the harness
// actually executes. Memoized cache hits are not re-reported, so a
// sweep's observation stream carries each distinct run once — the shape
// a calibration corpus wants (feed it to profile.Store.Observer to turn
// a figure sweep into calibration samples).
type Observer func(core.Profile)

// SetObserver installs fn as the run observer (nil removes it). Runs
// fan out over the worker pool, so fn must be safe for concurrent
// calls.
func (h *Harness) SetObserver(fn Observer) {
	h.obsMu.Lock()
	h.obs = fn
	h.obsMu.Unlock()
}

func (h *Harness) observer() Observer {
	h.obsMu.RLock()
	defer h.obsMu.RUnlock()
	return h.obs
}

// NewHarness builds a harness over the paper's two clusters, with the
// worker pool sized to GOMAXPROCS.
func NewHarness() (*Harness, error) {
	return NewHarnessOn(middleware.PentiumMyrinet(), middleware.OpteronInfiniband())
}

// NewHarnessOn builds a harness over the given clusters, calibrating each
// one's interconnect, with the worker pool sized to GOMAXPROCS. The
// figures and ablations need the paper's two clusters (NewHarness); a
// harness over other clusters serves Simulate and SimulateOpts on them.
func NewHarnessOn(clusters ...middleware.ClusterSpec) (*Harness, error) {
	g, err := middleware.NewGrid(clusters...)
	if err != nil {
		return nil, err
	}
	h := &Harness{grid: g, links: make(map[string]core.LinkCalibration), cache: newSimCache()}
	h.SetParallelism(runtime.GOMAXPROCS(0))
	for _, cl := range clusters {
		cal, err := core.CalibrateLink(g.MeasureIC(cl.Name))
		if err != nil {
			return nil, fmt.Errorf("bench: calibrating %s: %w", cl.Name, err)
		}
		h.links[cl.Name] = cal
	}
	return h, nil
}

// Grid exposes the simulated testbed, for callers that build their own
// cost model (fgrun's fault plans) or time the engine directly.
func (h *Harness) Grid() *middleware.Grid { return h.grid }

// Links exposes the interconnect calibrations per cluster.
func (h *Harness) Links() map[string]core.LinkCalibration {
	out := make(map[string]core.LinkCalibration, len(h.links))
	for k, v := range h.links {
		out[k] = v
	}
	return out
}

// simulate runs one application configuration on the simulated testbed,
// using the experiment's chunk size. A non-nil sink receives the run's
// phase events. Sink-less runs are memoized (the simulator is
// deterministic, so equal inputs yield equal results); traced runs
// always execute — their events cannot be replayed from a cache — but
// publish their result for later sink-less callers.
func (h *Harness) simulate(ctx context.Context, app string, total, chunk units.Bytes, cfg core.Config, sink middleware.Sink) (middleware.SimResult, error) {
	key := simKey{app: app, total: total, chunk: chunk, cfg: cfg}
	if sink != nil {
		res, err := h.runSim(ctx, app, total, chunk, cfg, sink)
		if err == nil {
			h.cache.publish(key, res)
		}
		return res, err
	}
	return h.cache.do(ctx, key, func() (middleware.SimResult, error) {
		return h.runSim(ctx, app, total, chunk, cfg, nil)
	})
}

// Simulate runs one application configuration through the harness's
// worker pool and memo cache — the entry point long-running callers
// (fgserved) use, so repeated profile requests cost one engine run.
// ctx is honored at the cancellation points a simulation has before its
// bounded engine run: waiting for a worker-pool slot, waiting on a
// memoized in-flight duplicate, and the moment a slot is acquired. A
// canceled ctx therefore never starts an engine run, but a run already
// started completes (its result stays useful to the memo cache).
func (h *Harness) Simulate(ctx context.Context, app string, total, chunk units.Bytes, cfg core.Config) (middleware.SimResult, error) {
	// Traced requests record one span per Simulate call, annotated with
	// the app — a memo hit shows up as a near-zero-duration simulate
	// span, an actual engine run as the dominant one.
	sp := reqtrace.Child(ctx, "simulate")
	res, err := h.simulate(ctx, app, total, chunk, cfg, nil)
	if sp.Traced() {
		if err != nil {
			sp.Annotate("app=" + app + " err")
		} else {
			sp.Annotate("app=" + app)
		}
	}
	sp.End()
	return res, err
}

// SimulateOpts runs one application configuration with explicit
// protocol options (fault plans, ablation variants, trace sinks). Such
// runs are not covered by the memo key, so SimulateOpts bypasses the
// memo cache, the worker pool and the observer: it is a plain engine
// run on the harness's testbed.
func (h *Harness) SimulateOpts(app string, total, chunk units.Bytes, cfg core.Config, opts middleware.SimOptions) (middleware.SimResult, error) {
	a, err := apps.Get(app)
	if err != nil {
		return middleware.SimResult{}, err
	}
	spec, err := DatasetChunked(app, total, chunk)
	if err != nil {
		return middleware.SimResult{}, err
	}
	cost, err := a.Cost(spec)
	if err != nil {
		return middleware.SimResult{}, err
	}
	return h.grid.SimulateOpts(cost, spec, cfg, opts)
}

// runSim executes one simulation while holding a worker-pool slot. The
// slot wait is context-aware: a canceled caller stops queueing for
// simulation capacity instead of holding its place in line.
func (h *Harness) runSim(ctx context.Context, app string, total, chunk units.Bytes, cfg core.Config, sink middleware.Sink) (res middleware.SimResult, err error) {
	select {
	case h.sem <- struct{}{}:
	case <-ctx.Done():
		return middleware.SimResult{}, ctx.Err()
	}
	defer func() { <-h.sem }()
	if cerr := ctx.Err(); cerr != nil {
		// The slot and the cancellation raced; prefer the cancellation —
		// nothing has been simulated yet.
		return middleware.SimResult{}, cerr
	}
	simStarted.Inc()
	res, err = h.SimulateOpts(app, total, chunk, cfg, middleware.SimOptions{Trace: sink})
	if err == nil {
		simCompleted.Inc()
		if fn := h.observer(); fn != nil {
			fn(res.Profile)
		}
	}
	return res, err
}

// repDatasetBytes is the dataset size used by the representative
// applications when measuring cross-cluster scaling factors.
const repDatasetBytes = 256 * units.MB

// scalingFactors measures the component scaling factors between the base
// cluster and the target cluster using the representative applications on
// identical configurations, per Section 3.4 of the paper. The 2×|repApps|
// profile runs are independent and go through the worker pool; across
// figures the identical representative runs are memoized, so each is
// simulated once per harness.
func (h *Harness) scalingFactors(e experiment) (core.Scaling, []core.Profile, error) {
	type repRun struct{ app, cluster string }
	var runs []repRun
	for _, rep := range e.repApps {
		for _, cl := range []string{PentiumCluster, e.targetCluster} {
			runs = append(runs, repRun{rep, cl})
		}
	}
	profiles := make([]core.Profile, len(runs))
	err := h.fanOut(len(runs), func(i int) error {
		r := runs[i]
		cfg := core.Config{
			Cluster:      r.cluster,
			DataNodes:    e.baseN,
			ComputeNodes: e.baseC,
			Bandwidth:    e.baseBW,
			DatasetBytes: repDatasetBytes,
		}
		res, err := h.simulate(context.Background(), r.app, repDatasetBytes, ChunkFor(repDatasetBytes), cfg, nil)
		if err != nil {
			return fmt.Errorf("bench: representative %s on %s: %w", r.app, r.cluster, err)
		}
		profiles[i] = res.Profile
		return nil
	})
	if err != nil {
		return core.Scaling{}, nil, err
	}
	var onA, onB []core.Profile
	for i, r := range runs {
		if r.cluster == PentiumCluster {
			onA = append(onA, profiles[i])
		} else {
			onB = append(onB, profiles[i])
		}
	}
	s, err := core.ComputeScaling(onA, onB)
	return s, onB, err
}

// ScalingFactors measures the Section 3.4 component scaling factors from
// the Pentium cluster to target: each representative app runs on n data
// and c compute nodes at bandwidth bw on both clusters, memoized like
// every harness run.
func (h *Harness) ScalingFactors(reps []string, target string, n, c int, bw units.Rate) (core.Scaling, error) {
	s, _, err := h.scalingFactors(experiment{
		repApps: reps, targetCluster: target, baseN: n, baseC: c, baseBW: bw,
	})
	return s, err
}

// Run regenerates one figure. The 14 grid cells are independent
// simulations and fan out over the worker pool; the base profile and
// (for cross-cluster figures) the scaling factors are computed first
// because every cell's prediction depends on them.
func (h *Harness) Run(id string) (Figure, error) {
	e, ok := experiments()[id]
	if !ok {
		return Figure{}, fmt.Errorf("bench: unknown figure %q (have %v)", id, FigureIDs())
	}
	a, err := apps.Get(e.app)
	if err != nil {
		return Figure{}, err
	}

	baseCfg := core.Config{
		Cluster:      PentiumCluster,
		DataNodes:    e.baseN,
		ComputeNodes: e.baseC,
		Bandwidth:    e.baseBW,
		DatasetBytes: e.baseBytes,
	}
	chunk := ChunkFor(e.baseBytes)
	col := middleware.NewCollector()
	baseRes, err := h.simulate(context.Background(), e.app, e.baseBytes, chunk, baseCfg, col)
	if err != nil {
		return Figure{}, fmt.Errorf("bench: %s base profile: %w", id, err)
	}

	pred, err := core.NewPredictor(baseRes.Profile, a.Model)
	if err != nil {
		return Figure{}, err
	}
	for cl, cal := range h.links {
		pred.Links[cl] = cal
	}

	fig := Figure{
		ID:         id,
		Title:      e.title,
		App:        e.app,
		Variants:   e.variants,
		BasePhases: phaseTotals(col),
		Notes: []string{
			fmt.Sprintf("base profile: %v (T_exec %v)", baseCfg, baseRes.Profile.Texec().Round(time.Millisecond)),
			fmt.Sprintf("target: %v @ %v on %s", e.targetBytes, e.targetBW, e.targetCluster),
			fmt.Sprintf("app model: RO %v, global %v", a.Model.RO, a.Model.Global),
		},
	}

	if e.targetCluster != PentiumCluster {
		scaling, _, err := h.scalingFactors(e)
		if err != nil {
			return Figure{}, fmt.Errorf("bench: %s scaling factors: %w", id, err)
		}
		pred.Scalings[e.targetCluster] = scaling
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"scaling factors from %v: s_d=%.3f s_n=%.3f s_c=%.3f",
			e.repApps, scaling.Disk, scaling.Network, scaling.Compute))
	}

	grid := ConfigGrid()
	cells := make([]Cell, len(grid))
	err = h.fanOut(len(grid), func(i int) error {
		cell, err := h.runCell(e, pred, chunk, grid[i])
		if err != nil {
			return err
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	fig.Cells = cells
	return fig, nil
}

// runCell simulates one grid configuration and predicts it with every
// plotted variant. Predictor.Predict is pure, so concurrent cells may
// share one predictor.
func (h *Harness) runCell(e experiment, pred *core.Predictor, chunk units.Bytes, nc [2]int) (Cell, error) {
	cfg := core.Config{
		Cluster:      e.targetCluster,
		DataNodes:    nc[0],
		ComputeNodes: nc[1],
		Bandwidth:    e.targetBW,
		DatasetBytes: e.targetBytes,
	}
	actual, err := h.simulate(context.Background(), e.app, e.targetBytes, chunk, cfg, nil)
	if err != nil {
		return Cell{}, fmt.Errorf("bench: %s actual %d-%d: %w", e.id, nc[0], nc[1], err)
	}
	cell := Cell{
		DataNodes:    nc[0],
		ComputeNodes: nc[1],
		Actual:       actual.Makespan,
		Predicted:    make(map[core.Variant]time.Duration, len(e.variants)),
		Errors:       make(map[core.Variant]float64, len(e.variants)),
	}
	for _, v := range e.variants {
		p, err := pred.Predict(cfg, v)
		if err != nil {
			return Cell{}, fmt.Errorf("bench: %s predict %d-%d %v: %w", e.id, nc[0], nc[1], v, err)
		}
		cell.Predicted[v] = p.Texec()
		cell.Errors[v] = stats.RelError(actual.Makespan.Seconds(), p.Texec().Seconds())
	}
	return cell, nil
}

// RunAll regenerates every figure in paper order. Whole figures fan out
// concurrently on top of the per-figure cell fan-out; the worker pool
// bounds total simulation concurrency either way, and the output is
// identical to a serial run because every figure slots into its paper
// position.
func (h *Harness) RunAll() ([]Figure, error) {
	ids := FigureIDs()
	out := make([]Figure, len(ids))
	err := h.fanOut(len(ids), func(i int) error {
		fig, err := h.Run(ids[i])
		if err != nil {
			return err
		}
		out[i] = fig
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
