// Command fgpredict demonstrates the prediction workflow end to end: it
// collects a base profile on one configuration of the simulated testbed,
// seeds the prediction framework with it, predicts a target configuration
// with all three model variants, and compares against the target's actual
// (simulated) execution time.
//
// Profiles are exchanged through the versioned profile store: -save
// writes one (with version metadata a long-running fgserved can keep
// recalibrating), -load reads one back in either the versioned or the
// plain core format.
//
// Example:
//
//	fgpredict -app em -size 350MB -base 1,1 -target 8,16 -target-size 1.4GB
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/cliutil"
	"freerideg/internal/core"
	"freerideg/internal/profile"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

func main() {
	var (
		app        = cliutil.App("kmeans", apps.Names())
		size       = cliutil.Bytes("size", 512*units.MB, "base profile dataset size")
		basePair   = cliutil.NodePair("base", 1, 1, "base profile config as data,compute")
		targetPair = cliutil.NodePair("target", 8, 16, "target config as data,compute")
		targetSize = cliutil.Bytes("target-size", 0, "target dataset size (default: base size)")
		bw         = cliutil.Rate("bw", 100*units.MBPerSec, "bandwidth per storage node, per second")
		targetBW   = cliutil.Rate("target-bw", 0, "target bandwidth (default: base bandwidth)")
		cluster    = flag.String("target-cluster", bench.PentiumCluster, "target cluster")
		savePath   = flag.String("save", "", "write the base profile, calibrations, and factors to this versioned profile store")
		loadPath   = flag.String("load", "", "read the base profile from this profile store instead of profiling")
	)
	flag.Parse()

	baseTotal := size.Bytes
	tgtTotal := baseTotal
	if targetSize.IsSet() {
		tgtTotal = targetSize.Bytes
	}
	tgtBW := bw.Rate
	if targetBW.IsSet() {
		tgtBW = targetBW.Rate
	}

	h, err := bench.NewHarness()
	if err != nil {
		fail(err)
	}
	a, err := apps.Get(*app)
	if err != nil {
		fail(err)
	}
	ctx := context.Background()
	var (
		baseProfile core.Profile
		pred        *core.Predictor
	)
	if *loadPath != "" {
		store, err := profile.Open(*loadPath, profile.Options{Lookup: apps.Model})
		if err != nil {
			fail(err)
		}
		snap := store.Snapshot()
		p, ver, ok := snap.Find(*app)
		if !ok {
			fail(fmt.Errorf("no profile for %q in %s", *app, *loadPath))
		}
		baseProfile = p
		baseTotal = p.Config.DatasetBytes
		if !targetSize.IsSet() {
			tgtTotal = baseTotal
		}
		if !targetBW.IsSet() {
			tgtBW = p.Config.Bandwidth
		}
		fmt.Printf("loaded base profile (%s v%d) from %s (store version %d): %v\n",
			*app, ver, *loadPath, snap.Version(), p.Config)
		// The snapshot predictor carries the store's own link calibrations
		// and scaling factors.
		if pred, err = snap.Predictor(*app, a.Model); err != nil {
			fail(err)
		}
	} else {
		baseCfg := core.Config{
			Cluster: bench.PentiumCluster, DataNodes: basePair.Data, ComputeNodes: basePair.Compute,
			Bandwidth: bw.Rate, DatasetBytes: baseTotal,
		}
		baseRes, err := h.Simulate(ctx, *app, baseTotal, bench.ChunkFor(baseTotal), baseCfg)
		if err != nil {
			fail(err)
		}
		baseProfile = baseRes.Profile
		fmt.Printf("base profile (%s): %v\n", *app, baseCfg)
		if pred, err = core.NewPredictor(baseProfile, a.Model); err != nil {
			fail(err)
		}
	}
	chunk := bench.ChunkFor(baseTotal)
	fmt.Printf("  t_d=%v t_n=%v t_c=%v (T_ro=%v T_g=%v), RO/node=%v, %d iter\n",
		rnd(baseProfile.Tdisk), rnd(baseProfile.Tnetwork), rnd(baseProfile.Tcompute),
		rnd(baseProfile.Tro), rnd(baseProfile.Tglobal),
		baseProfile.ROBytesPerNode, baseProfile.Iterations)

	// The harness's measured interconnects backstop clusters the loaded
	// store has no calibration for; loaded calibrations win.
	for cl, cal := range h.Links() {
		if _, ok := pred.Links[cl]; !ok {
			pred.Links[cl] = cal
		}
	}
	if _, ok := pred.Scalings[*cluster]; !ok && *cluster != bench.PentiumCluster {
		// Cross-cluster prediction needs experimentally measured scaling
		// factors (paper Section 3.4), taken on the base profile's own
		// configuration — a loaded one need not match the -base/-bw flags.
		fmt.Println("note: cross-cluster prediction uses kmeans/knn/vortex scaling factors")
		bc := baseProfile.Config
		scal, err := h.ScalingFactors([]string{"kmeans", "knn", "vortex"}, *cluster, bc.DataNodes, bc.ComputeNodes, bc.Bandwidth)
		if err != nil {
			fail(err)
		}
		pred.Scalings[*cluster] = scal
	}

	if *savePath != "" {
		// Saving through the store layer stamps version metadata, so a
		// long-running service can pick the file up and keep recalibrating
		// it; -load and fgserved -profiles read it back through profile.Open.
		st, err := profile.NewStore(core.ProfileStore{
			Profiles: []core.Profile{baseProfile},
			Links:    h.Links(),
			Scalings: pred.Scalings,
		}, profile.Options{Lookup: apps.Model})
		if err != nil {
			fail(err)
		}
		if err := st.SaveAs(*savePath); err != nil {
			fail(err)
		}
		fmt.Printf("versioned profile store written to %s\n", *savePath)
	}

	tgtCfg := core.Config{
		Cluster: *cluster, DataNodes: targetPair.Data, ComputeNodes: targetPair.Compute,
		Bandwidth: tgtBW, DatasetBytes: tgtTotal,
	}
	actual, err := h.Simulate(ctx, *app, tgtTotal, chunk, tgtCfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("target: %v\n", tgtCfg)
	fmt.Printf("  actual T_exec: %v\n", rnd(actual.Makespan))
	for _, v := range core.Variants() {
		p, err := pred.Predict(tgtCfg, v)
		if err != nil {
			fail(err)
		}
		e := stats.RelError(actual.Makespan.Seconds(), p.Texec().Seconds())
		fmt.Printf("  %-24s predicted %v (error %.2f%%)\n", v.String()+":", rnd(p.Texec()), 100*e)
	}
}

func rnd(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

func fail(err error) { cliutil.Fatal("fgpredict", err) }
