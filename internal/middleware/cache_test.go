package middleware

import (
	"testing"
	"time"

	"freerideg/internal/apps"
	"freerideg/internal/core"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

func simulateOpts(t *testing.T, g *Grid, app string, total units.Bytes, cfg core.Config, opts SimOptions) SimResult {
	t.Helper()
	a, err := apps.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	spec := pointsSpec(total)
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.SimulateOpts(cost, spec, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCacheModeStrings(t *testing.T) {
	if CacheMemory.String() != "memory" || CacheLocalDisk.String() != "local-disk" {
		t.Error("cache mode strings changed")
	}
	if CacheMode(9).String() == "" {
		t.Error("unknown cache mode has empty string")
	}
}

func TestMemoryCachingHasNoCachedRetrieval(t *testing.T) {
	g := testGrid(t)
	total := 128 * units.MB
	res := simulateOpts(t, g, "kmeans", total, config(1, 2, total), SimOptions{})
	if res.Profile.TdiskCached != 0 {
		t.Fatalf("memory caching recorded %v of cached retrieval", res.Profile.TdiskCached)
	}
}

func TestLocalDiskCachingChargesRetrieval(t *testing.T) {
	g := testGrid(t)
	total := 128 * units.MB
	cfg := config(1, 2, total)
	mem := simulateOpts(t, g, "kmeans", total, cfg, SimOptions{})
	disk := simulateOpts(t, g, "kmeans", total, cfg, SimOptions{Cache: CacheLocalDisk})
	if disk.Profile.TdiskCached <= 0 {
		t.Fatal("local-disk caching recorded no cached retrieval")
	}
	if disk.Makespan <= mem.Makespan {
		t.Fatalf("disk caching (%v) not slower than memory caching (%v)", disk.Makespan, mem.Makespan)
	}
	if disk.Profile.Tdisk <= mem.Profile.Tdisk {
		t.Fatal("cached reads not reflected in Tdisk")
	}
	// kmeans makes 10 passes: 9 cached re-reads of the per-node share.
	// Each node re-reads ~total/2 per pass at DiskBW plus seeks.
	perPass := PentiumMyrinet().DiskBW.TransferTime(total / 2)
	if disk.Profile.TdiskCached < 9*perPass {
		t.Fatalf("cached retrieval %v below the 9-pass transfer floor %v",
			disk.Profile.TdiskCached, 9*perPass)
	}
}

// TestCachedPredictionExtension checks the model extension: with disk
// caching, a profile-seeded predictor that splits first-pass and cached
// retrieval stays accurate when the compute-node count changes (cached
// re-reads scale with ĉ, not n̂).
func TestCachedPredictionExtension(t *testing.T) {
	g := testGrid(t)
	total := 256 * units.MB
	opts := SimOptions{Cache: CacheLocalDisk}
	base := simulateOpts(t, g, "kmeans", total, config(1, 1, total), opts)
	a, _ := apps.Get("kmeans")
	pred, err := core.NewPredictor(base.Profile, a.Model)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := core.CalibrateLink(g.MeasureIC("pentium-myrinet"))
	if err != nil {
		t.Fatal(err)
	}
	pred.Links["pentium-myrinet"] = cal
	for _, nc := range [][2]int{{1, 4}, {2, 8}, {4, 16}} {
		cfg := config(nc[0], nc[1], total)
		actual := simulateOpts(t, g, "kmeans", total, cfg, opts)
		p, err := pred.Predict(cfg, core.GlobalReduction)
		if err != nil {
			t.Fatal(err)
		}
		e := stats.RelError(actual.Makespan.Seconds(), p.Texec().Seconds())
		if e > 0.05 {
			t.Errorf("%d-%d with disk caching: prediction off by %.1f%% (actual %v, predicted %v)",
				nc[0], nc[1], 100*e, actual.Makespan, p.Texec())
		}
	}
}

func TestProfileValidateCachedField(t *testing.T) {
	g := testGrid(t)
	total := 64 * units.MB
	res := simulateOpts(t, g, "kmeans", total, config(1, 2, total),
		SimOptions{Cache: CacheLocalDisk})
	if err := res.Profile.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := res.Profile
	bad.TdiskCached = bad.Tdisk + time.Second
	if err := bad.Validate(); err == nil {
		t.Fatal("cached retrieval above Tdisk accepted")
	}
}
