// Benchmarks regenerating the paper's evaluation: one benchmark per
// figure (Figures 2-13), wall-clock benchmarks of the real application
// kernels, and the design-choice ablations from DESIGN.md.
//
// Figure benchmarks report two custom metrics alongside time/op:
// the maximum and mean relative prediction error (in percent) of the
// paper's most accurate model variant over the 14-configuration grid.
package freerideg_test

import (
	"sync"
	"testing"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/datagen"
	"freerideg/internal/middleware"
	"freerideg/internal/reduction"
	"freerideg/internal/units"
)

var (
	harnessOnce sync.Once
	harness     *bench.Harness
	harnessErr  error
)

func getHarness(b *testing.B) *bench.Harness {
	b.Helper()
	harnessOnce.Do(func() {
		harness, harnessErr = bench.NewHarness()
	})
	if harnessErr != nil {
		b.Fatal(harnessErr)
	}
	return harness
}

// benchFigure regenerates one figure per iteration and reports the
// headline error metrics of the figure's most accurate variant.
func benchFigure(b *testing.B, id string) {
	h := getHarness(b)
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = h.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := fig.Variants[len(fig.Variants)-1] // global reduction last
	b.ReportMetric(100*fig.MaxError(best), "maxerr%")
	b.ReportMetric(100*fig.MeanError(best), "meanerr%")
}

func BenchmarkFig02KMeansParallel(b *testing.B)     { benchFigure(b, "fig2") }
func BenchmarkFig03Vortex(b *testing.B)             { benchFigure(b, "fig3") }
func BenchmarkFig04Defect(b *testing.B)             { benchFigure(b, "fig4") }
func BenchmarkFig05EM(b *testing.B)                 { benchFigure(b, "fig5") }
func BenchmarkFig06KNN(b *testing.B)                { benchFigure(b, "fig6") }
func BenchmarkFig07EMDatasetScale(b *testing.B)     { benchFigure(b, "fig7") }
func BenchmarkFig08DefectDatasetScale(b *testing.B) { benchFigure(b, "fig8") }
func BenchmarkFig09DefectBandwidth(b *testing.B)    { benchFigure(b, "fig9") }
func BenchmarkFig10EMBandwidth(b *testing.B)        { benchFigure(b, "fig10") }
func BenchmarkFig11EMCrossCluster(b *testing.B)     { benchFigure(b, "fig11") }
func BenchmarkFig12DefectCrossCluster(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13VortexCrossCluster(b *testing.B) { benchFigure(b, "fig13") }

// ---------------------------------------------------------------------
// Ablation benchmarks (design choices called out in DESIGN.md).

func BenchmarkAblationTreeGather(b *testing.B) {
	h := getHarness(b)
	var res bench.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = h.AblationTreeGather("kmeans")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Baseline, "base-err%")
	b.ReportMetric(100*res.Variant, "tree-err%")
}

func BenchmarkAblationFlowControl(b *testing.B) {
	h := getHarness(b)
	var res bench.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = h.AblationFlowControl("knn")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Baseline, "sync-gap%")
	b.ReportMetric(100*res.Variant, "async-gap%")
}

func BenchmarkAblationStorageScaling(b *testing.B) {
	h := getHarness(b)
	var res bench.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = h.AblationStorageScaling("knn")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Baseline, "with-term%")
	b.ReportMetric(100*res.Variant, "dropped%")
}

func BenchmarkAblationDiskCache(b *testing.B) {
	h := getHarness(b)
	var res bench.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = h.AblationDiskCache("kmeans")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Baseline, "split-err%")
	b.ReportMetric(100*res.Variant, "naive-err%")
}

func BenchmarkAblationClassInference(b *testing.B) {
	h := getHarness(b)
	mismatches := 0
	for i := 0; i < b.N; i++ {
		inferred, err := h.InferredModels()
		if err != nil {
			b.Fatal(err)
		}
		mismatches = 0
		for _, name := range apps.Names() {
			a, _ := apps.Get(name)
			if inferred[name] != a.Model {
				mismatches++
			}
		}
	}
	b.ReportMetric(float64(mismatches), "mismatches")
}

// ---------------------------------------------------------------------
// Real-kernel benchmarks: per-chunk processing throughput of each
// application's actual implementation (bytes/s via SetBytes).

func kernelSpec(kind string) adr.DatasetSpec {
	spec := adr.DatasetSpec{
		Name:       "bench-" + kind,
		TotalBytes: 4 * units.MB,
		ChunkBytes: units.MB,
		Kind:       kind,
		Seed:       71,
	}
	switch kind {
	case "points":
		spec.ElemBytes, spec.Dims = 128, 16
	case "field":
		spec.ElemBytes, spec.Dims = 16, 2
	case "lattice":
		spec.ElemBytes, spec.Dims = 24, 3
	case "transactions":
		spec.ElemBytes, spec.Dims = 96, 12
	}
	return spec
}

func benchKernelChunk(b *testing.B, app string) {
	a, err := apps.Get(app)
	if err != nil {
		b.Fatal(err)
	}
	spec := kernelSpec(a.DatasetKind)
	gen, err := datagen.For(spec.Kind)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := adr.Partition(spec, 1, adr.RoundRobin)
	if err != nil {
		b.Fatal(err)
	}
	chunk := layout.Chunks()[0]
	payload := reduction.Payload{
		Chunk:  chunk,
		Fields: gen.FieldsPerElem(spec),
		Values: gen.ChunkValues(spec, chunk),
	}
	kern, err := a.NewKernel(spec)
	if err != nil {
		b.Fatal(err)
	}
	obj := kern.NewObject()
	b.SetBytes(int64(chunk.Bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kern.ProcessChunk(payload, obj); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelKMeans(b *testing.B)  { benchKernelChunk(b, "kmeans") }
func BenchmarkKernelEM(b *testing.B)      { benchKernelChunk(b, "em") }
func BenchmarkKernelKNN(b *testing.B)     { benchKernelChunk(b, "knn") }
func BenchmarkKernelVortex(b *testing.B)  { benchKernelChunk(b, "vortex") }
func BenchmarkKernelDefect(b *testing.B)  { benchKernelChunk(b, "defect") }
func BenchmarkKernelApriori(b *testing.B) { benchKernelChunk(b, "apriori") }
func BenchmarkKernelANN(b *testing.B)     { benchKernelChunk(b, "ann") }

// BenchmarkLocalBackendScaling runs the full goroutine middleware at two
// parallelism levels, showing the real speedup the prediction framework
// models.
func BenchmarkLocalBackendScaling(b *testing.B) {
	for _, nodes := range []int{1, 4} {
		nodes := nodes
		b.Run(map[int]string{1: "c1", 4: "c4"}[nodes], func(b *testing.B) {
			a, _ := apps.Get("kmeans")
			spec := kernelSpec("points")
			for i := 0; i < b.N; i++ {
				kern, err := a.NewKernel(spec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := middleware.RunLocal(kern, spec, 1, nodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSMPStrategies compares the FREERIDE shared-memory techniques
// on one 4-thread SMP node (real execution, 1 data / 1 compute node).
func BenchmarkSMPStrategies(b *testing.B) {
	for _, strategy := range []middleware.ShmStrategy{middleware.FullReplication, middleware.FullLocking} {
		strategy := strategy
		b.Run(strategy.String(), func(b *testing.B) {
			a, _ := apps.Get("kmeans")
			spec := kernelSpec("points")
			for i := 0; i < b.N; i++ {
				kern, err := a.NewKernel(spec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := middleware.RunLocalOpts(kern, spec, 1, 1,
					middleware.LocalOptions{Threads: 4, Strategy: strategy}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures discrete-event simulation throughput for a
// paper-scale configuration (the harness's inner loop).
func BenchmarkSimulator(b *testing.B) {
	h := getHarness(b)
	a, _ := apps.Get("kmeans")
	total := 1434 * units.MB
	spec, err := bench.DatasetChunked("kmeans", total, bench.ChunkFor(total))
	if err != nil {
		b.Fatal(err)
	}
	cost, err := a.Cost(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Cluster:      bench.PentiumCluster,
		DataNodes:    8,
		ComputeNodes: 16,
		Bandwidth:    middleware.DefaultBandwidth,
		DatasetBytes: total,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Grid().Simulate(cost, spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
