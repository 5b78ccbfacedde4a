package bench

import (
	"strings"
	"sync"
	"testing"

	"freerideg/internal/apps"
	"freerideg/internal/core"
	"freerideg/internal/middleware"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

// sharedHarness avoids recalibrating per test.
var (
	harnessOnce sync.Once
	harness     *Harness
	harnessErr  error
)

func getHarness(t *testing.T) *Harness {
	t.Helper()
	harnessOnce.Do(func() {
		harness, harnessErr = NewHarness()
	})
	if harnessErr != nil {
		t.Fatal(harnessErr)
	}
	return harness
}

func TestConfigGrid(t *testing.T) {
	grid := ConfigGrid()
	if len(grid) != 14 {
		t.Fatalf("grid has %d configs, want the paper's 14", len(grid))
	}
	for _, nc := range grid {
		if nc[1] < nc[0] {
			t.Errorf("config %d-%d violates compute >= data", nc[0], nc[1])
		}
	}
	if grid[0] != [2]int{1, 1} || grid[len(grid)-1] != [2]int{8, 16} {
		t.Errorf("grid range %v..%v, want 1-1..8-16", grid[0], grid[len(grid)-1])
	}
}

func TestChunkFor(t *testing.T) {
	cases := []struct {
		base units.Bytes
		want units.Bytes
	}{
		{130 * units.MB, 260 * units.KB},
		{1434 * units.MB, 2 * units.MB}, // capped
		{10 * units.MB, 128 * units.KB}, // floored
	}
	for _, c := range cases {
		got := ChunkFor(c.base)
		if got%(4*units.KB) != 0 {
			t.Errorf("ChunkFor(%v) = %v not row-aligned", c.base, got)
		}
		if got != c.want {
			t.Errorf("ChunkFor(%v) = %v, want %v", c.base, got, c.want)
		}
	}
}

func TestDatasetSpecsValid(t *testing.T) {
	for _, app := range apps.Names() {
		spec, err := Dataset(app, 64*units.MB)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
	if _, err := Dataset("bogus", units.MB); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestFigureIDsOrdered(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 12 {
		t.Fatalf("%d figures, want 12 (fig2..fig13)", len(ids))
	}
	if ids[0] != "fig2" || ids[11] != "fig13" {
		t.Fatalf("figure order %v", ids)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	h := getHarness(t)
	if _, err := h.Run("fig99"); err == nil {
		t.Fatal("unknown figure ran")
	}
}

// TestFig2ReproducesPaperShape asserts the headline claims of the paper's
// Figure 2 on the simulated testbed: the base configuration predicts
// itself exactly, the three model variants rank no-comm <= red-comm <=
// global at the most serialized configuration, the global-reduction model
// is accurate everywhere, and the no-comm model degrades visibly.
func TestFig2ReproducesPaperShape(t *testing.T) {
	h := getHarness(t)
	fig, err := h.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Cells) != 14 {
		t.Fatalf("%d cells, want 14", len(fig.Cells))
	}
	base := fig.Cells[0]
	if base.DataNodes != 1 || base.ComputeNodes != 1 {
		t.Fatalf("first cell is %d-%d, want 1-1", base.DataNodes, base.ComputeNodes)
	}
	for _, v := range fig.Variants {
		if base.Errors[v] > 1e-9 {
			t.Errorf("base config error for %v = %v, want 0", v, base.Errors[v])
		}
	}
	last := fig.Cells[len(fig.Cells)-1] // 8-16
	if !(last.Errors[core.GlobalReduction] <= last.Errors[core.ReductionComm] &&
		last.Errors[core.ReductionComm] <= last.Errors[core.NoComm]) {
		t.Errorf("variant ordering broken at 8-16: %v", last.Errors)
	}
	if m := fig.MaxError(core.GlobalReduction); m > 0.03 {
		t.Errorf("global-reduction max error %.2f%%, want < 3%%", 100*m)
	}
	if m := fig.MaxError(core.NoComm); m < 0.04 {
		t.Errorf("no-comm max error %.2f%%, want the visible degradation the paper shows (>= 4%%)", 100*m)
	}
}

func TestAllSameClusterFiguresAccurate(t *testing.T) {
	h := getHarness(t)
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6"} {
		fig, err := h.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if m := fig.MaxError(core.GlobalReduction); m > 0.05 {
			t.Errorf("%s: global-reduction max error %.2f%%, want < 5%%", id, 100*m)
		}
		last := fig.Cells[len(fig.Cells)-1]
		if !(last.Errors[core.GlobalReduction] <= last.Errors[core.NoComm]) {
			t.Errorf("%s: global model not better than no-comm at 8-16", id)
		}
	}
}

func TestDatasetAndBandwidthScalingFigures(t *testing.T) {
	h := getHarness(t)
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10"} {
		fig, err := h.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Variants) != 1 || fig.Variants[0] != core.GlobalReduction {
			t.Errorf("%s plots %v, want global reduction only", id, fig.Variants)
		}
		if m := fig.MaxError(core.GlobalReduction); m > 0.03 {
			t.Errorf("%s: max error %.2f%%, want < 3%% (paper: small errors under scaling)", id, 100*m)
		}
	}
}

func TestCrossClusterFigures(t *testing.T) {
	h := getHarness(t)
	sameClusterMax := 0.0
	{
		fig, err := h.Run("fig5") // EM on the same cluster
		if err != nil {
			t.Fatal(err)
		}
		sameClusterMax = fig.MaxError(core.GlobalReduction)
	}
	crossWorst := 0.0
	for _, id := range []string{"fig11", "fig12", "fig13"} {
		fig, err := h.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		m := fig.MaxError(core.GlobalReduction)
		if m > 0.20 {
			t.Errorf("%s: max error %.2f%%, want reasonable accuracy (< 20%%)", id, 100*m)
		}
		if m > crossWorst {
			crossWorst = m
		}
		found := false
		for _, note := range fig.Notes {
			if strings.Contains(note, "scaling factors") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no scaling-factor note recorded", id)
		}
	}
	// Cross-cluster predictions are less accurate than same-cluster ones,
	// the paper's qualitative claim.
	if crossWorst <= sameClusterMax {
		t.Errorf("cross-cluster worst error %.2f%% not above same-cluster %.2f%%",
			100*crossWorst, 100*sameClusterMax)
	}
}

func TestPerAppScalingFactorsDiffer(t *testing.T) {
	// The paper observed per-application compute scaling factors ranging
	// from 0.233 to 0.370; our instruction-mix model must likewise yield
	// different factors per app.
	h := getHarness(t)
	e := experiments()["fig11"]
	var factors []float64
	for _, rep := range e.repApps {
		single, _, err := h.scalingFactors(experiment{
			baseN: e.baseN, baseC: e.baseC, baseBW: e.baseBW,
			targetCluster: e.targetCluster, repApps: []string{rep},
		})
		if err != nil {
			t.Fatal(err)
		}
		factors = append(factors, single.Compute)
	}
	for i := 1; i < len(factors); i++ {
		if factors[i] == factors[0] {
			t.Fatalf("representative apps share compute factor %.3f; mixes not differentiating", factors[0])
		}
	}
	for _, f := range factors {
		if f <= 0.1 || f >= 0.9 {
			t.Errorf("compute factor %.3f outside plausible range", f)
		}
	}
}

func TestInferredModelsMatchLabels(t *testing.T) {
	h := getHarness(t)
	inferred, err := h.InferredModels()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range apps.Names() {
		a, _ := apps.Get(name)
		if inferred[name] != a.Model {
			t.Errorf("%s: inferred %+v, labeled %+v", name, inferred[name], a.Model)
		}
	}
}

func TestAblationTreeGather(t *testing.T) {
	h := getHarness(t)
	res, err := h.AblationTreeGather("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	// The serialized-gather model must lose accuracy when the middleware
	// switches to a combining tree.
	if res.Variant <= res.Baseline {
		t.Errorf("tree gather did not degrade the model: baseline %.2f%%, variant %.2f%%",
			100*res.Baseline, 100*res.Variant)
	}
}

func TestAblationFlowControl(t *testing.T) {
	h := getHarness(t)
	res, err := h.AblationFlowControl("knn")
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline > 0.05 {
		t.Errorf("synchronous protocol additivity gap %.2f%%, want < 5%%", 100*res.Baseline)
	}
	if res.Variant <= res.Baseline {
		t.Errorf("async delivery did not increase the additivity gap: %.2f%% vs %.2f%%",
			100*res.Variant, 100*res.Baseline)
	}
}

func TestAblationDiskCache(t *testing.T) {
	h := getHarness(t)
	res, err := h.AblationDiskCache("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline > 0.05 {
		t.Errorf("extended cached-retrieval model max error %.2f%%, want < 5%%", 100*res.Baseline)
	}
	if res.Variant <= res.Baseline {
		t.Errorf("collapsing the cached split did not hurt: baseline %.2f%%, variant %.2f%%",
			100*res.Baseline, 100*res.Variant)
	}
}

func TestAblationStorageScaling(t *testing.T) {
	h := getHarness(t)
	res, err := h.AblationStorageScaling("knn")
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant <= res.Baseline {
		t.Errorf("dropping the n/n̂ term did not hurt: baseline %.2f%%, variant %.2f%%",
			100*res.Baseline, 100*res.Variant)
	}
}

func TestAblationFaultRecovery(t *testing.T) {
	h := getHarness(t)
	res, err := h.AblationFaultRecovery("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	// The fault-unaware predictor must lose accuracy once the middleware
	// spends time on retries, detection, and failover re-fetches.
	if res.Variant <= res.Baseline {
		t.Errorf("fault recovery did not degrade the model: baseline %.2f%%, variant %.2f%%",
			100*res.Baseline, 100*res.Variant)
	}
}

func TestTestbedSatisfiesModelAssumptions(t *testing.T) {
	// The healthy simulated testbed must pass the paper's own assumption
	// checks (retrieval/network/compute linearity and scaling) — that is
	// what entitles the simple model to work on it.
	h := getHarness(t)
	a, _ := apps.Get("kmeans")
	chunk := ChunkFor(256 * units.MB)
	var profiles []core.Profile
	for _, run := range []struct {
		n, c  int
		bytes units.Bytes
	}{
		{1, 2, 256 * units.MB},
		{1, 2, 512 * units.MB},
		{2, 2, 256 * units.MB},
		{1, 4, 256 * units.MB},
	} {
		spec, err := DatasetChunked("kmeans", run.bytes, chunk)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := a.Cost(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{
			Cluster:      PentiumCluster,
			DataNodes:    run.n,
			ComputeNodes: run.c,
			Bandwidth:    middleware.DefaultBandwidth,
			DatasetBytes: run.bytes,
		}
		res, err := h.Grid().Simulate(cost, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, res.Profile)
	}
	warnings, err := core.CheckAssumptions(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("healthy testbed tripped assumption checks: %v", warnings)
	}
}

func TestRunAblationsCoversAll(t *testing.T) {
	h := getHarness(t)
	results, err := h.RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d ablations, want 5", len(results))
	}
	var sb strings.Builder
	if err := RenderAblations(&sb, results); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tree-gather", "flow-control", "storage-scaling-term", "disk-cache-model", "fault-recovery"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("rendered ablations missing %q", name)
		}
	}
	checkGolden(t, "ablations.golden", []byte(sb.String()))
}

func TestRenderContainsTable(t *testing.T) {
	h := getHarness(t)
	fig, err := h.Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, fig); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig9", "1-1", "8-16", "max error", "global reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q", want)
		}
	}
}

func TestMaxAndMeanError(t *testing.T) {
	f := Figure{Cells: []Cell{
		{Errors: map[core.Variant]float64{core.NoComm: 0.1}},
		{Errors: map[core.Variant]float64{core.NoComm: 0.3}},
	}}
	if f.MaxError(core.NoComm) != 0.3 {
		t.Errorf("MaxError = %v", f.MaxError(core.NoComm))
	}
	if f.MeanError(core.NoComm) != 0.2 {
		t.Errorf("MeanError = %v", f.MeanError(core.NoComm))
	}
	if f.MaxError(core.GlobalReduction) != 0 {
		t.Errorf("missing variant MaxError = %v, want 0", f.MaxError(core.GlobalReduction))
	}
}

// TestGeneratedFaultPlansComplete checks GenerateFaultPlan's promise that
// the middleware's default retry budget recovers from every plan it
// generates: over seeds 1–500, kmeans on 8 MB (fgrun's dataset) at 1-2,
// 2-4 and 3-8 completes on the simulator. Plans with two flaky links on
// one storage node, whose drops can chain into one delivery (seed 114 at
// 2-4 drew one), must not be generated.
func TestGeneratedFaultPlansComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("1,500 simulations")
	}
	h := getHarness(t)
	const app, total = "kmeans", 8 * units.MB
	a, _ := apps.Get(app)
	spec, err := Dataset(app, total)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range [][2]int{{1, 2}, {2, 4}, {3, 8}} {
		cfg := core.Config{
			Cluster:      "pentium-myrinet",
			DataNodes:    nc[0],
			ComputeNodes: nc[1],
			Bandwidth:    middleware.DefaultBandwidth,
			DatasetBytes: total,
		}
		for seed := int64(1); seed <= 500; seed++ {
			plan := simgrid.GenerateFaultPlan(seed, nc[0], nc[1], cost.Iterations)
			if _, err := h.SimulateOpts(app, total, spec.ChunkBytes, cfg, middleware.SimOptions{Faults: &plan}); err != nil {
				t.Errorf("seed %d at %d-%d (%v): %v", seed, nc[0], nc[1], plan, err)
			}
		}
	}
}
