package bench

import (
	"runtime"
	"testing"
)

// benchHarness builds a fresh harness (empty memo cache) per iteration
// so every run measures real simulation work, not cache hits from the
// previous iteration.
func benchHarness(b *testing.B, par int) *Harness {
	b.Helper()
	h, err := NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	h.SetParallelism(par)
	return h
}

// BenchmarkHarnessRunFig5 regenerates one full figure (base profile +
// 14-cell sweep) serially — the per-figure unit of work.
func BenchmarkHarnessRunFig5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, 1)
		if _, err := h.Run("fig5"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllSerial is the sweep baseline: every figure of the
// paper's evaluation, strictly one simulation at a time.
func BenchmarkRunAllSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, 1)
		if _, err := h.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllParallel is the same sweep through the parallel engine
// at the GOMAXPROCS worker-pool bound. The ns/op ratio against
// BenchmarkRunAllSerial is the sweep speedup (≈1 on a single-core
// machine, ≥2 expected on 4+ cores); the tracked benchmark reports it
// as bench.parallel_speedup on the sweep-figures workload.
func BenchmarkRunAllParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, runtime.GOMAXPROCS(0))
		if _, err := h.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}
