package middleware

import (
	"testing"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/core"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

func testGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := NewGrid(PentiumMyrinet(), OpteronInfiniband())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pointsSpec(total units.Bytes) adr.DatasetSpec {
	return adr.DatasetSpec{
		Name:       "pts",
		TotalBytes: total,
		ElemBytes:  128,
		ChunkBytes: 8 * units.MB,
		Kind:       "points",
		Dims:       16,
		Seed:       17,
	}
}

func config(n, c int, total units.Bytes) core.Config {
	return core.Config{
		Cluster:      "pentium-myrinet",
		DataNodes:    n,
		ComputeNodes: c,
		Bandwidth:    DefaultBandwidth,
		DatasetBytes: total,
	}
}

func simulate(t *testing.T, g *Grid, app string, spec adr.DatasetSpec, cfg core.Config) SimResult {
	t.Helper()
	a, err := apps.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Simulate(cost, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(ClusterSpec{}); err == nil {
		t.Error("empty cluster spec accepted")
	}
	if _, err := NewGrid(PentiumMyrinet(), PentiumMyrinet()); err == nil {
		t.Error("duplicate cluster accepted")
	}
	g := testGrid(t)
	if _, err := g.Cluster("nope"); err == nil {
		t.Error("unknown cluster returned")
	}
}

func TestSimulateProducesConsistentProfile(t *testing.T) {
	g := testGrid(t)
	spec := pointsSpec(256 * units.MB)
	res := simulate(t, g, "kmeans", spec, config(1, 1, spec.TotalBytes))
	p := res.Profile
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Tdisk <= 0 || p.Tnetwork <= 0 || p.Tcompute <= 0 {
		t.Fatalf("degenerate breakdown: %+v", p.Breakdown)
	}
	if p.Tro != 0 {
		t.Errorf("Tro = %v on one compute node, want 0", p.Tro)
	}
	if p.Tglobal <= 0 {
		t.Error("Tglobal not measured")
	}
	if p.Iterations != 10 {
		t.Errorf("iterations = %d, want 10 (kmeans default)", p.Iterations)
	}
	// The synchronous protocol makes the breakdown additive: the makespan
	// must be within a few percent of the component sum.
	if e := stats.RelError(res.Makespan.Seconds(), p.Texec().Seconds()); e > 0.03 {
		t.Errorf("additivity violated at 1-1: makespan %v vs sum %v (%.1f%%)",
			res.Makespan, p.Texec(), 100*e)
	}
}

func TestSimulateAdditiveAcrossConfigs(t *testing.T) {
	g := testGrid(t)
	spec := pointsSpec(256 * units.MB)
	for _, nc := range [][2]int{{1, 1}, {1, 4}, {2, 4}, {4, 8}, {8, 16}, {1, 16}} {
		res := simulate(t, g, "kmeans", spec, config(nc[0], nc[1], spec.TotalBytes))
		e := stats.RelError(res.Makespan.Seconds(), res.Profile.Texec().Seconds())
		if e > 0.05 {
			t.Errorf("config %d-%d: makespan %v vs component sum %v (%.1f%%)",
				nc[0], nc[1], res.Makespan, res.Profile.Texec(), 100*e)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	g := testGrid(t)
	spec := pointsSpec(128 * units.MB)
	a := simulate(t, g, "em", spec, config(2, 4, spec.TotalBytes))
	b := simulate(t, g, "em", spec, config(2, 4, spec.TotalBytes))
	if a.Makespan != b.Makespan || a.Profile != b.Profile {
		t.Fatalf("simulation not deterministic: %v vs %v", a.Makespan, b.Makespan)
	}
}

func TestComputeTimeScalesWithNodes(t *testing.T) {
	g := testGrid(t)
	spec := pointsSpec(256 * units.MB)
	r1 := simulate(t, g, "kmeans", spec, config(1, 1, spec.TotalBytes))
	r4 := simulate(t, g, "kmeans", spec, config(1, 4, spec.TotalBytes))
	// Local compute shrinks ~4x; serialized parts grow.
	local1 := r1.Profile.Tcompute - r1.Profile.Tro - r1.Profile.Tglobal
	local4 := r4.Profile.Tcompute - r4.Profile.Tro - r4.Profile.Tglobal
	ratio := local1.Seconds() / local4.Seconds()
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("local compute scaled by %.2f with 4 nodes, want ~4", ratio)
	}
	if r4.Profile.Tro <= r1.Profile.Tro {
		t.Error("Tro did not grow with node count")
	}
}

func TestDiskTimeScalesSubLinearly(t *testing.T) {
	g := testGrid(t)
	spec := pointsSpec(256 * units.MB)
	r1 := simulate(t, g, "knn", spec, config(1, 1, spec.TotalBytes))
	r8 := simulate(t, g, "knn", spec, config(8, 8, spec.TotalBytes))
	ratio := r1.Profile.Tdisk.Seconds() / r8.Profile.Tdisk.Seconds()
	// Perfect scaling would be 8; contention (DiskAlpha) keeps it below.
	if ratio >= 8 {
		t.Errorf("disk scaled by %.2f at 8 nodes, want sub-linear (< 8)", ratio)
	}
	if ratio < 6 {
		t.Errorf("disk scaled by only %.2f at 8 nodes; contention too strong", ratio)
	}
}

func TestNetworkTimeScalesWithBandwidth(t *testing.T) {
	g := testGrid(t)
	spec := pointsSpec(128 * units.MB)
	full := config(1, 2, spec.TotalBytes)
	half := full
	half.Bandwidth = full.Bandwidth / 2
	rFull := simulate(t, g, "knn", spec, full)
	rHalf := simulate(t, g, "knn", spec, half)
	ratio := rHalf.Profile.Tnetwork.Seconds() / rFull.Profile.Tnetwork.Seconds()
	// Latency per chunk keeps the ratio slightly under 2.
	if ratio < 1.8 || ratio > 2.0 {
		t.Errorf("halving bandwidth scaled Tnetwork by %.3f, want ~2 (slightly under)", ratio)
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	g := testGrid(t)
	spec := pointsSpec(64 * units.MB)
	a, _ := apps.Get("kmeans")
	cost, _ := a.Cost(spec)
	bad := config(1, 1, 999)
	if _, err := g.Simulate(cost, spec, bad); err == nil {
		t.Error("dataset-size mismatch accepted")
	}
	unknown := config(1, 1, spec.TotalBytes)
	unknown.Cluster = "nope"
	if _, err := g.Simulate(cost, spec, unknown); err == nil {
		t.Error("unknown cluster accepted")
	}
	cost.OpsPerElem = 0
	if _, err := g.Simulate(cost, spec, config(1, 1, spec.TotalBytes)); err == nil {
		t.Error("invalid cost model accepted")
	}
}

func TestMeasureICMatchesSpec(t *testing.T) {
	g := testGrid(t)
	probe := g.MeasureIC("pentium-myrinet")
	d, err := probe(units.MB)
	if err != nil {
		t.Fatal(err)
	}
	want := PentiumMyrinet().ICMessageTime(units.MB)
	if d != want {
		t.Fatalf("probe(1MB) = %v, want %v", d, want)
	}
	if _, err := g.MeasureIC("nope")(units.KB); err == nil {
		t.Error("unknown cluster probe succeeded")
	}
}

// TestEndToEndPredictionAccuracy is the reproduction's crux: a predictor
// seeded only with the 1-1 profile must predict every other configuration
// to within a few percent using the global-reduction variant, and the
// variants must rank no-comm <= reduction-comm <= global-reduction in
// accuracy on the serialized-heavy configurations.
func TestEndToEndPredictionAccuracy(t *testing.T) {
	g := testGrid(t)
	spec := pointsSpec(512 * units.MB)
	base := config(1, 1, spec.TotalBytes)
	prof := simulate(t, g, "kmeans", spec, base).Profile

	a, _ := apps.Get("kmeans")
	pred, err := core.NewPredictor(prof, a.Model)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := core.CalibrateLink(g.MeasureIC("pentium-myrinet"))
	if err != nil {
		t.Fatal(err)
	}
	pred.Links["pentium-myrinet"] = cal

	for _, nc := range [][2]int{{1, 2}, {1, 8}, {2, 4}, {4, 16}, {8, 8}, {8, 16}} {
		cfg := config(nc[0], nc[1], spec.TotalBytes)
		actual := simulate(t, g, "kmeans", spec, cfg).Makespan
		p, err := pred.Predict(cfg, core.GlobalReduction)
		if err != nil {
			t.Fatal(err)
		}
		e := stats.RelError(actual.Seconds(), p.Texec().Seconds())
		if e > 0.05 {
			t.Errorf("global-reduction prediction for %d-%d off by %.1f%% (actual %v, predicted %v)",
				nc[0], nc[1], 100*e, actual, p.Texec())
		}
	}

	// Variant ordering at the most serialized configuration.
	cfg := config(8, 16, spec.TotalBytes)
	actual := simulate(t, g, "kmeans", spec, cfg).Makespan
	var errs [3]float64
	for i, v := range core.Variants() {
		p, err := pred.Predict(cfg, v)
		if err != nil {
			t.Fatal(err)
		}
		errs[i] = stats.RelError(actual.Seconds(), p.Texec().Seconds())
	}
	if !(errs[2] <= errs[1] && errs[1] <= errs[0]) {
		t.Errorf("variant errors not ordered at 8-16: no-comm %.2f%%, red-comm %.2f%%, global %.2f%%",
			100*errs[0], 100*errs[1], 100*errs[2])
	}
}

func TestSimulationRunsFast(t *testing.T) {
	// Paper-scale simulations must stay cheap: 1.4 GB over 14 configs is
	// the harness's inner loop.
	if testing.Short() {
		t.Skip("timing test")
	}
	g := testGrid(t)
	spec := pointsSpec(1433 * units.MB)
	start := time.Now()
	simulate(t, g, "kmeans", spec, config(8, 16, spec.TotalBytes))
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("one paper-scale simulation took %v", el)
	}
}

// TestIdleNodeTakesNoCachedWait pins the engine's work for a run with
// more compute nodes than chunks: kmeans over two 8 MB chunks at 1-1 to
// 1-4, where nodes 2 and 3 hold nothing. A node with nothing pending must
// take no Wait in a cached pass — not even Wait(0), which would tie with
// node 0 (released by the same broadcast instant as node c-1) and park
// behind it, one extra event per cached pass. The switch counts pin where
// the workers hand their queued calls to the engine.
func TestIdleNodeTakesNoCachedWait(t *testing.T) {
	total := 16 * units.MB
	spec := pointsSpec(total)
	a, _ := apps.Get("kmeans")
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range map[int]struct{ events, switches uint64 }{
		1: {22, 22}, 2: {86, 63}, 3: {148, 104}, 4: {210, 145},
	} {
		_, ex, err := testGrid(t).simulateOpts(cost, spec, config(1, c, total), SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := ex.eng.Events(); got != want.events {
			t.Errorf("1-%d: %d calendar events, want %d", c, got, want.events)
		}
		if got := ex.eng.Switches(); got != want.switches {
			t.Errorf("1-%d: %d process switches, want %d", c, got, want.switches)
		}
	}
}

// TestEarlyReleasedNodeBooksEachChunk checks the per-pass local-reduce
// and cached-fetch times of fault-free runs whose largest load sits on a
// middle compute node (n does not divide c). A serialized broadcast
// releases such a node into the next pass while the master is still
// broadcasting, yet every pass does the same work, so every pass must
// report the same times: each pass's local-reduce equals pass 0's (pinned
// as an anchor), and each cached pass's cached-fetch equals the largest
// node's local-disk reads of its chunks (none for in-memory caching).
func TestEarlyReleasedNodeBooksEachChunk(t *testing.T) {
	total := 16 * units.MB
	a, _ := apps.Get("kmeans")
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	for _, tc := range []struct {
		chunk    units.Bytes
		cache    CacheMode
		n, c     int
		compute0 time.Duration // pass 0's local-reduce
	}{
		{64 * units.KB, CacheMemory, 2, 3, ms(854.494976)},
		{64 * units.KB, CacheLocalDisk, 2, 3, ms(854.494976)},
		{64 * units.KB, CacheLocalDisk, 2, 7, ms(287.056906)},
		{units.MB, CacheLocalDisk, 2, 3, ms(614.49492)},
	} {
		spec := pointsSpec(total)
		spec.ChunkBytes = tc.chunk
		cost, err := a.Cost(spec)
		if err != nil {
			t.Fatal(err)
		}
		col := NewCollector()
		_, ex, err := testGrid(t).simulateOpts(cost, spec, config(tc.n, tc.c, total),
			SimOptions{Cache: tc.cache, Trace: col})
		if err != nil {
			t.Fatal(err)
		}
		var read time.Duration
		if tc.cache == CacheLocalDisk {
			for j := 0; j < tc.c; j++ {
				var r time.Duration
				for _, ch := range ex.work[1][j] {
					r += ex.cluster.DiskSeek + ex.cluster.DiskBW.TransferTime(ch.Bytes)
				}
				read = max(read, r)
			}
		}
		compute := make([]time.Duration, ex.passes)
		cached := make([]time.Duration, ex.passes)
		for _, ev := range col.Events() {
			switch ev.Phase {
			case PhaseLocalReduce:
				compute[ev.Pass] = ev.Dur
			case PhaseCachedFetch:
				cached[ev.Pass] = ev.Dur
			}
		}
		for pass := range compute {
			want := time.Duration(0)
			if pass > 0 {
				want = read
			}
			if compute[pass] != tc.compute0 || cached[pass] != want {
				t.Errorf("%v chunks, %v cache, %d-%d: pass %d local-reduce %v, cached-fetch %v; want %v, %v",
					tc.chunk, tc.cache, tc.n, tc.c, pass, compute[pass], cached[pass], tc.compute0, want)
			}
		}
	}
}
