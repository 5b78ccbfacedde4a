// Integration tests exercising the whole stack together: data repository,
// middleware, prediction framework, and resource selection.
package freerideg_test

import (
	"context"
	"testing"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/grid"
	"freerideg/internal/middleware"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

func integrationHarness(t *testing.T) *bench.Harness {
	t.Helper()
	h, err := bench.NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestResourceSelectionPicksNearOptimal runs the full decision loop the
// middleware automates: profile once, rank every feasible (replica,
// configuration) pair by prediction, then simulate every pair and check
// the selected one is (near-)optimal in actual execution time.
func TestResourceSelectionPicksNearOptimal(t *testing.T) {
	h := integrationHarness(t)
	for _, app := range []string{"kmeans", "vortex", "defect"} {
		app := app
		t.Run(app, func(t *testing.T) {
			total := 256 * units.MB
			spec, err := bench.Dataset(app, total)
			if err != nil {
				t.Fatal(err)
			}
			baseCfg := core.Config{
				Cluster:      bench.PentiumCluster,
				DataNodes:    1,
				ComputeNodes: 1,
				Bandwidth:    middleware.DefaultBandwidth,
				DatasetBytes: total,
			}
			base, err := h.Simulate(context.Background(), app, total, spec.ChunkBytes, baseCfg)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := core.NewPredictor(base.Profile, apps.Model(app))
			if err != nil {
				t.Fatal(err)
			}
			for cl, cal := range h.Links() {
				pred.Links[cl] = cal
			}

			svc := grid.NewService()
			for _, site := range []struct {
				name  string
				nodes int
				bw    units.Rate
			}{
				{"near", 2, 100 * units.MBPerSec},
				{"mid", 4, 50 * units.MBPerSec},
				{"far", 8, 20 * units.MBPerSec},
			} {
				layout, err := adr.Partition(spec, site.nodes, adr.RoundRobin)
				if err != nil {
					t.Fatal(err)
				}
				if err := svc.Replicas.Register(adr.Replica{
					Site: site.name, Cluster: bench.PentiumCluster,
					StorageNodes: site.nodes, Layout: layout,
				}); err != nil {
					t.Fatal(err)
				}
				if err := svc.SetBandwidth(site.name, bench.PentiumCluster, site.bw); err != nil {
					t.Fatal(err)
				}
			}
			for _, nodes := range []int{2, 4, 8, 16} {
				if err := svc.AddOffer(grid.ComputeOffer{Cluster: bench.PentiumCluster, Nodes: nodes}); err != nil {
					t.Fatal(err)
				}
			}

			sel := &grid.Selector{Predictor: pred, Variant: core.GlobalReduction}
			ranked, err := sel.Rank(svc, spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(ranked) < 6 {
				t.Fatalf("only %d candidates enumerated", len(ranked))
			}

			// Ground truth: simulate every candidate.
			bestActual := -1.0
			var chosenActual float64
			for i, cand := range ranked {
				res, err := h.Simulate(context.Background(), app, total, spec.ChunkBytes, cand.Config)
				if err != nil {
					t.Fatal(err)
				}
				actual := res.Makespan.Seconds()
				if bestActual < 0 || actual < bestActual {
					bestActual = actual
				}
				if i == 0 {
					chosenActual = actual
				}
				// Every prediction must be individually sane.
				if e := stats.RelError(actual, cand.Prediction.Texec().Seconds()); e > 0.15 {
					t.Errorf("candidate %s/%d-%d predicted %.1f%% off",
						cand.Replica.Site, cand.Config.DataNodes, cand.Config.ComputeNodes, 100*e)
				}
			}
			// The selected pair must be within 5% of the true optimum.
			if chosenActual > bestActual*1.05 {
				t.Errorf("selected pair runs in %.2fs, true best is %.2fs", chosenActual, bestActual)
			}
		})
	}
}

// TestProfileStoreDrivesPrediction saves a profile store to disk and
// rebuilds a working cross-cluster predictor from the file alone.
func TestProfileStoreDrivesPrediction(t *testing.T) {
	h := integrationHarness(t)
	const app = "em"
	total := 128 * units.MB
	chunk := bench.ChunkFor(total)
	baseCfg := core.Config{
		Cluster:      bench.PentiumCluster,
		DataNodes:    1,
		ComputeNodes: 1,
		Bandwidth:    middleware.DefaultBandwidth,
		DatasetBytes: total,
	}
	base, err := h.Simulate(context.Background(), app, total, chunk, baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	store := core.ProfileStore{
		Profiles: []core.Profile{base.Profile},
		Links:    h.Links(),
	}
	path := t.TempDir() + "/store.json"
	if err := core.SaveStore(path, store); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.NewPredictorFromStore(loaded, app, apps.Model(app))
	if err != nil {
		t.Fatal(err)
	}
	target := baseCfg
	target.DataNodes, target.ComputeNodes = 2, 8
	p, err := pred.Predict(target, core.GlobalReduction)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := h.Simulate(context.Background(), app, total, chunk, target)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelError(actual.Makespan.Seconds(), p.Texec().Seconds()); e > 0.05 {
		t.Fatalf("store-driven prediction off by %.1f%%", 100*e)
	}
}

// TestLocalAndSimulatedBackendsAgreeStructurally runs the same application
// on both backends and checks the structural facts the prediction model
// relies on hold for real executions too: the reduction object size
// matches the cost model, iteration counts agree, and the profile is
// valid.
func TestLocalAndSimulatedBackendsAgreeStructurally(t *testing.T) {
	h := integrationHarness(t)
	for _, app := range apps.Names() {
		app := app
		t.Run(app, func(t *testing.T) {
			a, _ := apps.Get(app)
			spec, err := bench.DatasetChunked(app, 2*units.MB, 256*units.KB)
			if err != nil {
				t.Fatal(err)
			}
			kern, err := a.NewKernel(spec)
			if err != nil {
				t.Fatal(err)
			}
			local, err := middleware.RunLocal(kern, spec, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{
				Cluster:      bench.PentiumCluster,
				DataNodes:    1,
				ComputeNodes: 2,
				Bandwidth:    middleware.DefaultBandwidth,
				DatasetBytes: spec.TotalBytes,
			}
			sim, err := h.Simulate(context.Background(), app, spec.TotalBytes, spec.ChunkBytes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := local.Profile.Validate(); err != nil {
				t.Fatal(err)
			}
			if local.Iterations > sim.Profile.Iterations {
				t.Errorf("local ran %d passes, cost model caps at %d",
					local.Iterations, sim.Profile.Iterations)
			}
			// The cost model's RO size estimate must be within 2x of the
			// real measured object (they use the same formulas but the
			// real object includes encoding overheads).
			real := float64(local.Profile.ROBytesPerNode)
			model := float64(sim.Profile.ROBytesPerNode)
			if real > 2*model || model > 2*real {
				t.Errorf("RO size mismatch: real %v vs model %v",
					local.Profile.ROBytesPerNode, sim.Profile.ROBytesPerNode)
			}
		})
	}
}
