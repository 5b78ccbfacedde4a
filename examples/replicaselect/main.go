// Replica selection: the scenario from the paper's introduction. A
// scientific dataset is replicated at two repository sites with different
// storage parallelism and different bandwidth to the compute cluster; the
// middleware must pick the replica and compute configuration that finish
// a vortex-detection analysis soonest.
//
// A retrieval-heavy single-pass application prefers the wide replica even
// over a slower link once enough compute nodes are available; the ranking
// below shows the crossover.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/grid"
	"freerideg/internal/units"
)

func main() {
	const app = "vortex"
	total := 710 * units.MB

	h, err := bench.NewHarness()
	if err != nil {
		log.Fatal(err)
	}
	spec, err := bench.Dataset(app, total)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Profile the application once on a minimal configuration.
	baseCfg := core.Config{
		Cluster:      bench.PentiumCluster,
		DataNodes:    1,
		ComputeNodes: 1,
		Bandwidth:    100 * units.MBPerSec,
		DatasetBytes: total,
	}
	base, err := h.Simulate(ctx, app, total, spec.ChunkBytes, baseCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base profile: %v — t_d=%v, t_n=%v, t_c=%v\n",
		baseCfg, base.Profile.Tdisk.Round(time.Millisecond),
		base.Profile.Tnetwork.Round(time.Millisecond),
		base.Profile.Tcompute.Round(time.Millisecond))

	pred, err := core.NewPredictor(base.Profile, apps.Model(app))
	if err != nil {
		log.Fatal(err)
	}
	for cl, cal := range h.Links() {
		pred.Links[cl] = cal
	}

	// The grid information service knows two replicas and several offers.
	svc := grid.NewService()
	sites := []struct {
		name  string
		nodes int
		bw    units.Rate
	}{
		{"campus-repository", 2, 100 * units.MBPerSec}, // near, narrow
		{"national-archive", 8, 40 * units.MBPerSec},   // far, wide
	}
	for _, s := range sites {
		layout, err := adr.Partition(spec, s.nodes, adr.RoundRobin)
		if err != nil {
			log.Fatal(err)
		}
		if err := svc.Replicas.Register(adr.Replica{
			Site: s.name, Cluster: bench.PentiumCluster,
			StorageNodes: s.nodes, Layout: layout,
		}); err != nil {
			log.Fatal(err)
		}
		if err := svc.SetBandwidth(s.name, bench.PentiumCluster, s.bw); err != nil {
			log.Fatal(err)
		}
	}
	for _, nodes := range []int{2, 8, 16} {
		if err := svc.AddOffer(grid.ComputeOffer{Cluster: bench.PentiumCluster, Nodes: nodes}); err != nil {
			log.Fatal(err)
		}
	}

	sel := &grid.Selector{Predictor: pred, Variant: core.GlobalReduction}
	ranked, err := sel.Rank(svc, spec.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nranked (replica, configuration) pairs:")
	for i, cand := range ranked {
		marker := "  "
		if i == 0 {
			marker = "->"
		}
		fmt.Printf("%s %-18s %d storage, %2d compute @ %-11v predicted %v\n",
			marker, cand.Replica.Site, cand.Config.DataNodes,
			cand.Config.ComputeNodes, cand.Config.Bandwidth,
			cand.Prediction.Texec().Round(time.Millisecond))
	}

	// Validate the choice against the simulated ground truth.
	best := ranked[0]
	actual, err := h.Simulate(ctx, app, total, spec.ChunkBytes, best.Config)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselected %s; predicted %v, actual %v\n",
		best.Replica.Site,
		best.Prediction.Texec().Round(time.Millisecond),
		actual.Makespan.Round(time.Millisecond))
}
