// Cross-cluster prediction (paper Section 3.4): a molecular defect
// detection profile is collected on the 700 MHz Pentium/Myrinet cluster,
// component scaling factors to the 2.4 GHz Opteron/Infiniband cluster are
// measured with three representative applications, and execution times on
// the Opteron cluster are predicted without ever profiling defect
// detection there.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

func main() {
	h, err := bench.NewHarness()
	if err != nil {
		log.Fatal(err)
	}
	const app = "defect"
	total := 130 * units.MB
	ctx := context.Background()

	// 1. Profile defect detection on the Pentium cluster.
	mk := func(cluster string, n, c int) core.Config {
		return core.Config{
			Cluster: cluster, DataNodes: n, ComputeNodes: c,
			Bandwidth: 100 * units.MBPerSec, DatasetBytes: total,
		}
	}
	base, err := h.Simulate(ctx, app, total, bench.ChunkFor(total), mk(bench.PentiumCluster, 4, 4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base profile on %s: T_exec %v\n",
		bench.PentiumCluster, base.Profile.Texec().Round(time.Millisecond))

	// 2. Measure scaling factors with three representative applications
	// run on identical configurations on both clusters.
	scaling, err := h.ScalingFactors([]string{"kmeans", "knn", "em"}, bench.OpteronCluster, 4, 4, 100*units.MBPerSec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scaling factors Pentium -> Opteron: s_d=%.3f s_n=%.3f s_c=%.3f\n",
		scaling.Disk, scaling.Network, scaling.Compute)

	// 3. Predict Opteron configurations and compare with simulated truth.
	pred, err := core.NewPredictor(base.Profile, apps.Model(app))
	if err != nil {
		log.Fatal(err)
	}
	for cl, cal := range h.Links() {
		pred.Links[cl] = cal
	}
	pred.Scalings[bench.OpteronCluster] = scaling

	fmt.Println("\npredictions on the Opteron cluster (never profiled there):")
	for _, nc := range [][2]int{{1, 1}, {2, 4}, {4, 4}, {4, 16}, {8, 16}} {
		cfg := mk(bench.OpteronCluster, nc[0], nc[1])
		p, err := pred.Predict(cfg, core.GlobalReduction)
		if err != nil {
			log.Fatal(err)
		}
		actual, err := h.Simulate(ctx, app, total, bench.ChunkFor(total), cfg)
		if err != nil {
			log.Fatal(err)
		}
		e := stats.RelError(actual.Makespan.Seconds(), p.Texec().Seconds())
		fmt.Printf("  %d-%-2d predicted %-10v actual %-10v error %5.2f%%\n",
			nc[0], nc[1],
			p.Texec().Round(time.Millisecond),
			actual.Makespan.Round(time.Millisecond), 100*e)
	}
}
