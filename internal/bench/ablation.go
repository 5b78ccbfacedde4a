package bench

import (
	"context"
	"fmt"

	"freerideg/internal/apps"
	"freerideg/internal/core"
	"freerideg/internal/middleware"
	"freerideg/internal/simgrid"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

// AblationResult compares the prediction framework's accuracy under a
// baseline setup and an ablated variant. Errors are the maximum
// global-reduction-variant relative errors over the configuration grid.
type AblationResult struct {
	Name     string   `json:"name"`
	Baseline float64  `json:"baseline"`
	Variant  float64  `json:"variant"`
	Notes    []string `json:"notes"`
}

// ablationDataset is the workload the ablations sweep.
const ablationDataset = 512 * units.MB

// ablationConfig is one grid configuration of the ablation workload.
func ablationConfig(n, c int) core.Config {
	return core.Config{
		Cluster:      PentiumCluster,
		DataNodes:    n,
		ComputeNodes: c,
		Bandwidth:    middleware.DefaultBandwidth,
		DatasetBytes: ablationDataset,
	}
}

// maxPredictionError predicts the configuration grid from a 1-1 profile
// and reports the maximum relative error, with configurable simulator
// options and predictor tweaks.
func (h *Harness) maxPredictionError(app string, opts middleware.SimOptions,
	tweak func(*core.Predictor)) (float64, error) {
	chunk := ChunkFor(ablationDataset)
	base, err := h.SimulateOpts(app, ablationDataset, chunk, ablationConfig(1, 1), opts)
	if err != nil {
		return 0, err
	}
	pred, err := core.NewPredictor(base.Profile, apps.Model(app))
	if err != nil {
		return 0, err
	}
	for cl, cal := range h.links {
		pred.Links[cl] = cal
	}
	if tweak != nil {
		tweak(pred)
	}
	var worst float64
	for _, nc := range ConfigGrid() {
		cfg := ablationConfig(nc[0], nc[1])
		actual, err := h.SimulateOpts(app, ablationDataset, chunk, cfg, opts)
		if err != nil {
			return 0, err
		}
		p, err := pred.Predict(cfg, core.GlobalReduction)
		if err != nil {
			return 0, err
		}
		if e := stats.RelError(actual.Makespan.Seconds(), p.Texec().Seconds()); e > worst {
			worst = e
		}
	}
	return worst, nil
}

// AblationTreeGather measures how much accuracy the prediction model loses
// when the middleware gathers reduction objects through a combining tree
// while the model keeps assuming the serialized gather (paper Section
// 3.3.1 models the serialized case).
func (h *Harness) AblationTreeGather(app string) (AblationResult, error) {
	baseline, err := h.maxPredictionError(app, middleware.SimOptions{}, nil)
	if err != nil {
		return AblationResult{}, err
	}
	variant, err := h.maxPredictionError(app, middleware.SimOptions{TreeGather: true}, nil)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "tree-gather",
		Baseline: baseline,
		Variant:  variant,
		Notes: []string{
			"baseline: serialized gather (matches the model)",
			"variant: log2(c) combining-tree gather under the same serialized-gather model",
		},
	}, nil
}

// AblationFlowControl measures how far the additive decomposition
// T_exec = t_d + t_n + t_c drifts when pass-0 delivery streams chunks
// asynchronously instead of using the synchronous chunk rounds.
func (h *Harness) AblationFlowControl(app string) (AblationResult, error) {
	gap := func(opts middleware.SimOptions) (float64, error) {
		var worst float64
		for _, nc := range ConfigGrid() {
			res, err := h.SimulateOpts(app, ablationDataset, ChunkFor(ablationDataset), ablationConfig(nc[0], nc[1]), opts)
			if err != nil {
				return 0, err
			}
			e := stats.RelError(res.Makespan.Seconds(), res.Profile.Texec().Seconds())
			if e > worst {
				worst = e
			}
		}
		return worst, nil
	}
	baseline, err := gap(middleware.SimOptions{})
	if err != nil {
		return AblationResult{}, err
	}
	variant, err := gap(middleware.SimOptions{AsyncDelivery: true})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "flow-control",
		Baseline: baseline,
		Variant:  variant,
		Notes: []string{
			"numbers are the worst |makespan - (t_d+t_n+t_c)| / makespan over the grid",
			"baseline: synchronous chunk rounds; variant: asynchronous streaming delivery",
		},
	}, nil
}

// AblationStorageScaling measures the value of the n/n̂ term in the
// network predictor (the paper notes it can be dropped when repository
// throughput does not scale; on this testbed it does scale, so dropping
// the term must hurt).
func (h *Harness) AblationStorageScaling(app string) (AblationResult, error) {
	baseline, err := h.maxPredictionError(app, middleware.SimOptions{}, nil)
	if err != nil {
		return AblationResult{}, err
	}
	variant, err := h.maxPredictionError(app, middleware.SimOptions{}, func(p *core.Predictor) {
		p.DropStorageScaling = true
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "storage-scaling-term",
		Baseline: baseline,
		Variant:  variant,
		Notes: []string{
			"baseline: T̂_network includes the n/n̂ term; variant: term dropped",
		},
	}, nil
}

// AblationDiskCache measures the value of the cached-retrieval model
// extension: with local-disk caching, passes after the first re-read
// chunks on the compute nodes, which scales with ĉ rather than n̂. The
// baseline predictor uses the extended split (Profile.TdiskCached); the
// variant collapses it into plain t_d, the paper's memory-caching
// assumption.
func (h *Harness) AblationDiskCache(app string) (AblationResult, error) {
	opts := middleware.SimOptions{Cache: middleware.CacheLocalDisk}
	baseline, err := h.maxPredictionError(app, opts, nil)
	if err != nil {
		return AblationResult{}, err
	}
	variant, err := h.maxPredictionError(app, opts, func(p *core.Predictor) {
		p.Profile.TdiskCached = 0 // pretend the profile was memory-cached
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "disk-cache-model",
		Baseline: baseline,
		Variant:  variant,
		Notes: []string{
			"middleware runs with local-disk caching in both cases",
			"baseline: predictor splits first-pass vs cached retrieval; variant: paper's memory-caching model",
		},
	}, nil
}

// AblationFaultRecovery measures how far fault recovery pushes execution
// away from the fault-free additive model: the same (fault-unaware)
// predictor covers runs where the middleware rides out a fixed fault
// plan — a compute-node crash triggers failover re-partitioning, a slow
// disk inflates retrieval, and a flaky link forces retried deliveries.
// Recovery overhead (discarded work, detection timeout, retry backoff)
// lives outside T_exec = t_d + t_n + t_c, so prediction error must grow.
// The plan replays across the whole configuration grid; faults
// addressing nodes a configuration does not have are dropped, so small
// configurations see only the storage-tier faults.
func (h *Harness) AblationFaultRecovery(app string) (AblationResult, error) {
	baseline, err := h.maxPredictionError(app, middleware.SimOptions{}, nil)
	if err != nil {
		return AblationResult{}, err
	}
	plan, err := simgrid.ParseFaultPlan(
		"crash node=1 pass=2; slow-disk node=0 factor=4 count=4; flaky-link node=0 pass=1 chunk=1 count=2")
	if err != nil {
		return AblationResult{}, err
	}
	variant, err := h.maxPredictionError(app, middleware.SimOptions{Faults: &plan}, nil)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "fault-recovery",
		Baseline: baseline,
		Variant:  variant,
		Notes: []string{
			"baseline: fault-free runs; variant: crash + slow-disk + flaky-link plan on every run",
			"recovery overhead is outside the additive model, so the fault-unaware predictor under-predicts",
		},
	}, nil
}

// InferredModels infers each application's scaling classes from three
// profile runs (Sections 3.3.1–3.3.2 allow inferring the classes instead
// of asking the user) and returns them keyed by app name.
func (h *Harness) InferredModels() (map[string]core.AppModel, error) {
	out := make(map[string]core.AppModel, len(apps.Names()))
	for _, name := range apps.Names() {
		chunk := ChunkFor(ablationDataset)
		var profiles []core.Profile
		for _, run := range []struct {
			n, c  int
			bytes units.Bytes
		}{
			{1, 1, ablationDataset},
			{1, 4, ablationDataset},
			{1, 1, ablationDataset / 2},
		} {
			cfg := core.Config{
				Cluster:      PentiumCluster,
				DataNodes:    run.n,
				ComputeNodes: run.c,
				Bandwidth:    middleware.DefaultBandwidth,
				DatasetBytes: run.bytes,
			}
			res, err := h.simulate(context.Background(), name, run.bytes, chunk, cfg, nil)
			if err != nil {
				return nil, fmt.Errorf("bench: inference profile for %s: %w", name, err)
			}
			profiles = append(profiles, res.Profile)
		}
		m, err := core.InferModel(profiles)
		if err != nil {
			return nil, fmt.Errorf("bench: inferring classes for %s: %w", name, err)
		}
		out[name] = m
	}
	return out, nil
}
