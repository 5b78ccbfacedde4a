// Diagnostics: operating the prediction framework in the wild. Before
// trusting the simple model, a deployment should (1) estimate the
// effective bandwidth of each repository path from observed transfers —
// the b̂ the paper obtains from wide-area transfer prediction services —
// and (2) check the model's scaling assumptions against a few profile
// runs. This example does both against the simulated testbed, including
// one deliberately hostile environment that trips the checks.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/grid"
	"freerideg/internal/middleware"
	"freerideg/internal/units"
)

func main() {
	h, err := bench.NewHarness()
	if err != nil {
		log.Fatal(err)
	}

	// --- Part 1: bandwidth estimation from observed transfers.
	fmt.Println("== bandwidth estimation")
	est := grid.NewBandwidthEstimator(0)
	// Observed chunk deliveries on two repository paths (elapsed =
	// latency + bytes/bandwidth, as a transfer log would record).
	for _, mb := range []units.Bytes{2, 8, 32, 64} {
		obs := func(site string, bw units.Rate, lat time.Duration) {
			s := grid.TransferSample{Bytes: mb * units.MB, Elapsed: lat + bw.TransferTime(mb*units.MB)}
			if err := est.Observe(site, bench.PentiumCluster, s); err != nil {
				log.Fatal(err)
			}
		}
		obs("campus", 95*units.MBPerSec, 2*time.Millisecond)
		obs("wide-area", 11*units.MBPerSec, 40*time.Millisecond)
	}
	for _, site := range []string{"campus", "wide-area"} {
		bw, lat, err := est.Estimate(site, bench.PentiumCluster)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s b̂ = %v, latency %v\n", site, bw, lat.Round(time.Millisecond))
	}

	// --- Part 2: assumption checks on a healthy testbed.
	fmt.Println("\n== assumption checks (healthy cluster)")
	profiles := sweep(h, bench.PentiumCluster)
	warnings, err := core.CheckAssumptions(profiles)
	if err != nil {
		log.Fatal(err)
	}
	if len(warnings) == 0 {
		fmt.Println("  all scaling assumptions hold")
	}
	for _, w := range warnings {
		fmt.Println("  WARNING", w)
	}

	// --- Part 3: the same checks against a hostile environment — a
	// repository whose backplane saturates (heavy DiskAlpha), so adding
	// storage nodes barely helps. The checks flag it and point at the
	// paper's remedy.
	fmt.Println("\n== assumption checks (contended repository)")
	contended := middleware.PentiumMyrinet()
	contended.Name = "contended-repository"
	contended.DiskAlpha = 0.8
	hostileHarness, err := bench.NewHarnessOn(contended)
	if err != nil {
		log.Fatal(err)
	}
	hostile := sweep(hostileHarness, contended.Name)
	warnings, err = core.CheckAssumptions(hostile)
	if err != nil {
		log.Fatal(err)
	}
	if len(warnings) == 0 {
		fmt.Println("  (no warnings)")
	}
	for _, w := range warnings {
		fmt.Println("  WARNING", w)
	}

	// --- Part 4: the structured event layer. Attach a Collector to one
	// run to get the per-phase time decomposition the event trace carries;
	// its aggregation equals the profile's (t_d, t_n, t_c) exactly, so a
	// deployment can reconcile its observability pipeline against the
	// reported breakdown.
	fmt.Println("\n== event-layer phase decomposition (kmeans, 2-4, 256 MB)")
	col := middleware.NewCollector()
	res, err := h.SimulateOpts("kmeans", 256*units.MB, bench.ChunkFor(256*units.MB), core.Config{
		Cluster:      bench.PentiumCluster,
		DataNodes:    2,
		ComputeNodes: 4,
		Bandwidth:    middleware.DefaultBandwidth,
		DatasetBytes: 256 * units.MB,
	}, middleware.SimOptions{Trace: col})
	if err != nil {
		log.Fatal(err)
	}
	for _, ph := range []middleware.Phase{
		middleware.PhaseRetrieval, middleware.PhaseDelivery, middleware.PhaseCachedFetch,
		middleware.PhaseLocalReduce, middleware.PhaseGather, middleware.PhaseGlobalReduce,
		middleware.PhaseSync, middleware.PhaseBroadcast,
	} {
		if d := col.PhaseTotal(ph); d > 0 {
			fmt.Printf("  %-13s %v\n", ph, d.Round(time.Millisecond))
		}
	}
	bd := col.Breakdown()
	fmt.Printf("  trace totals  t_d=%v t_n=%v t_c=%v (reconciles with profile: %v)\n",
		bd.Tdisk.Round(time.Millisecond), bd.Tnetwork.Round(time.Millisecond),
		bd.Tcompute.Round(time.Millisecond), bd == res.Profile.Breakdown)
}

// sweep runs kmeans profiles over a small configuration sweep on one
// cluster of a harness's testbed.
func sweep(h *bench.Harness, cluster string) []core.Profile {
	var out []core.Profile
	for _, run := range []struct {
		n, c  int
		bytes units.Bytes
	}{
		{1, 2, 128 * units.MB},
		{1, 2, 256 * units.MB},
		{2, 2, 128 * units.MB},
		{8, 8, 128 * units.MB},
	} {
		cfg := core.Config{
			Cluster:      cluster,
			DataNodes:    run.n,
			ComputeNodes: run.c,
			Bandwidth:    middleware.DefaultBandwidth,
			DatasetBytes: run.bytes,
		}
		res, err := h.Simulate(context.Background(), "kmeans", run.bytes, bench.ChunkFor(128*units.MB), cfg)
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, res.Profile)
	}
	return out
}
