package middleware

import (
	"math/rand"
	"testing"
	"testing/quick"

	"freerideg/internal/apps"
	"freerideg/internal/core"
	"freerideg/internal/units"
)

// pinnedQuick is a testing/quick configuration with a fixed seed, so a
// property failure reproduces on every run instead of at random.
func pinnedQuick(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

// fuzzConfig builds a valid configuration from fuzz inputs.
func fuzzConfig(nRaw, cRaw, sRaw uint8) (core.Config, units.Bytes) {
	n := 1 << (int(nRaw) % 4) // 1..8
	c := n << (int(cRaw) % 3) // n..4n
	if c > 16 {
		c = 16
	}
	total := units.Bytes(int(sRaw)%192+64) * units.MB
	return core.Config{
		Cluster:      "pentium-myrinet",
		DataNodes:    n,
		ComputeNodes: c,
		Bandwidth:    DefaultBandwidth,
		DatasetBytes: total,
	}, total
}

func TestSimPropertyProfilesAlwaysValid(t *testing.T) {
	g := testGrid(t)
	a, _ := apps.Get("kmeans")
	f := func(nRaw, cRaw, sRaw uint8) bool {
		cfg, total := fuzzConfig(nRaw, cRaw, sRaw)
		spec := pointsSpec(total)
		cost, err := a.Cost(spec)
		if err != nil {
			return false
		}
		res, err := g.Simulate(cost, spec, cfg)
		if err != nil {
			return false
		}
		if err := res.Profile.Validate(); err != nil {
			return false
		}
		// Makespan within 10% of the additive component sum: the
		// protocol's additivity property, for every configuration.
		gap := res.Makespan.Seconds() - res.Profile.Texec().Seconds()
		if gap < 0 {
			gap = -gap
		}
		return gap <= 0.10*res.Makespan.Seconds()
	}
	if err := quick.Check(f, pinnedQuick(25)); err != nil {
		t.Error(err)
	}
}

// TestSimComputeDoublingLaw replaces the false property "more compute is
// never slower" with the paper's §3.3.1 law. Doubling ĉ halves each
// node's share of t_c but adds serialized reduction-object messages: the
// global-reduction model charges (ĉ−1) of them per pass, so where they
// outgrow t_c/ĉ doubling ĉ is slower. The sweep doubles ĉ = n̂ for em over
// n̂ ∈ {1,2,4,8} and 64–253 MB in 3 MB steps. Wherever the simulator says
// doubling is slower, the global-reduction prediction — from the 1-1
// profile at that size, on the link calibrated from the measured
// interconnect — must rise too, and the no-comm prediction, which has no
// (ĉ−1) term, must fall.
func TestSimComputeDoublingLaw(t *testing.T) {
	g := testGrid(t)
	a, _ := apps.Get("em")
	link, err := core.CalibrateLink(g.MeasureIC("pentium-myrinet"))
	if err != nil {
		t.Fatal(err)
	}
	// slower checks the law on one (n̂, size) cell and reports whether the
	// simulator found doubling ĉ slower there.
	slower := func(t *testing.T, n int, total units.Bytes) bool {
		t.Helper()
		base, wide := config(n, n, total), config(n, 2*n, total)
		spec := pointsSpec(total)
		if simulate(t, g, "em", spec, wide).Makespan <= simulate(t, g, "em", spec, base).Makespan {
			return false
		}
		pred, err := core.NewPredictor(simulate(t, g, "em", spec, config(1, 1, total)).Profile, a.Model)
		if err != nil {
			t.Fatal(err)
		}
		pred.Links["pentium-myrinet"] = link
		for _, v := range []core.Variant{core.GlobalReduction, core.NoComm} {
			pb, err := pred.Predict(base, v)
			if err != nil {
				t.Fatal(err)
			}
			pw, err := pred.Predict(wide, v)
			if err != nil {
				t.Fatal(err)
			}
			if rises := pw.Texec() > pb.Texec(); rises != (v == core.GlobalReduction) {
				t.Errorf("em %d-%d → %d-%d at %v is slower simulated, but the %v prediction goes %v → %v",
					n, n, n, 2*n, total, v, pb.Texec(), pw.Texec())
			}
		}
		return true
	}

	// The inputs the time-seeded property failed on, through fuzzConfig:
	// 8-8 → 8-16 at 64 or 67 MB.
	for _, c := range []struct {
		name       string
		nRaw, sRaw uint8
	}{{"0x4f,0xc3", 0x4f, 0xc3}, {"0x2b,0x3", 0x2b, 0x3}, {"0x57,0xc0", 0x57, 0xc0}, {"0x27,0x0", 0x27, 0x0}} {
		t.Run(c.name, func(t *testing.T) {
			cfg, total := fuzzConfig(c.nRaw, 0, c.sRaw)
			if !slower(t, cfg.DataNodes, total) {
				t.Errorf("%d-%d at %v: the simulator no longer finds doubling ĉ slower", cfg.DataNodes, cfg.ComputeNodes, total)
			}
		})
	}

	cells, slowerCells := 0, 0
	for n := 1; n <= 8; n *= 2 {
		for mb := 64; mb < 256; mb += 3 {
			cells++
			if slower(t, n, units.Bytes(mb)*units.MB) {
				slowerCells++
			}
		}
	}
	if slowerCells == 0 {
		t.Fatalf("doubling ĉ is slower in none of %d cells: the sweep tests nothing", cells)
	}
	t.Logf("doubling ĉ is slower in %d of %d cells", slowerCells, cells)
}

func TestSimPropertyBiggerDatasetSlower(t *testing.T) {
	g := testGrid(t)
	a, _ := apps.Get("knn")
	f := func(nRaw, cRaw, sRaw uint8) bool {
		cfg, total := fuzzConfig(nRaw, cRaw, sRaw)
		spec := pointsSpec(total)
		cost, err := a.Cost(spec)
		if err != nil {
			return false
		}
		small, err := g.Simulate(cost, spec, cfg)
		if err != nil {
			return false
		}
		bigger := cfg
		bigger.DatasetBytes = total * 2
		bigSpec := pointsSpec(total * 2)
		bigCost, err := a.Cost(bigSpec)
		if err != nil {
			return false
		}
		big, err := g.Simulate(bigCost, bigSpec, bigger)
		if err != nil {
			return false
		}
		return big.Makespan > small.Makespan
	}
	if err := quick.Check(f, pinnedQuick(20)); err != nil {
		t.Error(err)
	}
}
