// Command fgselect demonstrates the resource selection framework: a
// dataset replicated at several repository sites, a set of compute offers
// from two clusters, measured site-to-cluster bandwidths, and an
// application profile. It ranks every feasible (replica, configuration)
// pair by predicted execution time and picks the cheapest — the decision
// the FREERIDE-G middleware automates.
//
// The application profile lives in a versioned profile store (loaded
// with -load, or self-profiled and adopted into an in-memory store), and
// the selector resolves it through the store's live snapshot — the same
// path the fgserved service uses.
//
// Example:
//
//	fgselect -app kmeans -size 1.4GB
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/cliutil"
	"freerideg/internal/core"
	"freerideg/internal/grid"
	"freerideg/internal/profile"
	"freerideg/internal/units"
)

func main() {
	var (
		app      = cliutil.App("kmeans", apps.Names())
		size     = cliutil.Bytes("size", 7*units.GB/5, "dataset size")
		loadPath = flag.String("load", "", "read the application profile from this profile store instead of self-profiling")
		deadline = flag.Duration("deadline", 0, "plan the cheapest configuration meeting this deadline instead of the fastest")
	)
	flag.Parse()

	total := size.Bytes
	h, err := bench.NewHarness()
	if err != nil {
		fail(err)
	}
	a, err := apps.Get(*app)
	if err != nil {
		fail(err)
	}
	spec, err := bench.Dataset(*app, total)
	if err != nil {
		fail(err)
	}
	ctx := context.Background()

	// The application profile comes through the store layer either way: a
	// -load file opens it directly; otherwise a 1-1 profiling run on the
	// Pentium cluster is adopted into a fresh in-memory store.
	var store *profile.Store
	if *loadPath != "" {
		if store, err = profile.Open(*loadPath, profile.Options{Lookup: apps.Model}); err != nil {
			fail(err)
		}
		snap := store.Snapshot()
		p, ver, ok := snap.Find(*app)
		if !ok {
			fail(fmt.Errorf("no profile for %q in %s", *app, *loadPath))
		}
		fmt.Printf("loaded profile (%s v%d) from %s: %v\n", *app, ver, *loadPath, p.Config)
	} else {
		baseCfg := core.Config{
			Cluster:      bench.PentiumCluster,
			DataNodes:    1,
			ComputeNodes: 1,
			Bandwidth:    100 * units.MBPerSec,
			DatasetBytes: total,
		}
		baseRes, err := h.Simulate(ctx, *app, total, spec.ChunkBytes, baseCfg)
		if err != nil {
			fail(err)
		}
		if store, err = profile.NewStore(core.ProfileStore{}, profile.Options{Lookup: apps.Model}); err != nil {
			fail(err)
		}
		if _, err := store.Ingest(profile.FromProfile(baseRes.Profile)); err != nil {
			fail(err)
		}
	}
	// Measured interconnects backstop clusters the store has no link
	// calibration for.
	store.SeedLinks(h.Links())

	// Grid information service: two replicas, three compute offers.
	svc := grid.NewService()
	for _, site := range []struct {
		name  string
		nodes int
		bw    units.Rate // to the Pentium cluster
	}{
		{"osu-repository", 4, 100 * units.MBPerSec},
		{"remote-mirror", 8, 25 * units.MBPerSec},
	} {
		layout, err := adr.Partition(spec, site.nodes, adr.RoundRobin)
		if err != nil {
			fail(err)
		}
		if err := svc.Replicas.Register(adr.Replica{
			Site: site.name, Cluster: bench.PentiumCluster,
			StorageNodes: site.nodes, Layout: layout,
		}); err != nil {
			fail(err)
		}
		if err := svc.SetBandwidth(site.name, bench.PentiumCluster, site.bw); err != nil {
			fail(err)
		}
	}
	for _, nodes := range []int{4, 8, 16} {
		if err := svc.AddOffer(grid.ComputeOffer{Cluster: bench.PentiumCluster, Nodes: nodes}); err != nil {
			fail(err)
		}
	}

	// The selector resolves the predictor from the store's live snapshot
	// per ranking round.
	sel := &grid.Selector{Source: store.NewSource(*app, a.Model), Variant: core.GlobalReduction}
	if *deadline > 0 {
		cand, err := grid.PlanCapacity(sel, svc, spec.Name, *deadline)
		if err != nil {
			fail(err)
		}
		fmt.Printf("cheapest configuration meeting %v: %s with %d storage / %d compute nodes (predicted %v)\n",
			*deadline, cand.Replica.Site, cand.Config.DataNodes, cand.Config.ComputeNodes,
			cand.Prediction.Texec().Round(time.Millisecond))
		return
	}
	ranked, err := sel.Rank(svc, spec.Name)
	if err != nil {
		fail(err)
	}
	fmt.Printf("resource selection for %s on %v (%d candidates):\n", *app, total, len(ranked))
	for i, cand := range ranked {
		marker := " "
		if i == 0 {
			marker = "*"
		}
		fmt.Printf("%s %-16s %2d storage / %2d compute @ %-12v predicted %v\n",
			marker, cand.Replica.Site, cand.Config.DataNodes, cand.Config.ComputeNodes,
			cand.Config.Bandwidth, cand.Prediction.Texec().Round(time.Millisecond))
	}
	best := ranked[0]
	actual, err := h.Simulate(ctx, *app, total, spec.ChunkBytes, best.Config)
	if err != nil {
		fail(err)
	}
	fmt.Printf("selected %s with %d compute nodes; actual simulated T_exec %v\n",
		best.Replica.Site, best.Config.ComputeNodes, actual.Makespan.Round(time.Millisecond))
}

func fail(err error) { cliutil.Fatal("fgselect", err) }
