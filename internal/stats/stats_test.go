package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pinnedQuick is a testing/quick configuration with a fixed seed, so a
// property failure reproduces on every run instead of at random.
func pinnedQuick(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almost(got, 2) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if m, err := Min(xs); err != nil || m != -1 {
		t.Fatalf("Min = %v, %v", m, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min(nil) err = %v, want ErrEmpty", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil || !almost(got, c.want) {
			t.Errorf("Quantile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile(nil) did not error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(q>1) did not error")
	}
	if got, _ := Quantile([]float64{42}, 0.7); got != 42 {
		t.Errorf("Quantile singleton = %v, want 42", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestRelError(t *testing.T) {
	cases := []struct{ exact, pred, want float64 }{
		{100, 95, 0.05},
		{100, 105, 0.05},
		{100, 100, 0},
		{0, 0, 0},
		{-100, -90, 0.1},
	}
	for _, c := range cases {
		if got := RelError(c.exact, c.pred); !almost(got, c.want) {
			t.Errorf("RelError(%v,%v) = %v, want %v", c.exact, c.pred, got, c.want)
		}
	}
	if got := RelError(0, 1); !math.IsInf(got, 1) {
		t.Errorf("RelError(0,1) = %v, want +Inf", got)
	}
}

func TestRelErrorSymmetryInSign(t *testing.T) {
	f := func(e, p float64) bool {
		e = math.Mod(math.Abs(e), 1e6) + 1 // nonzero, bounded
		p = math.Mod(math.Abs(p), 1e6)
		return almost(RelError(e, p), RelError(e, p)) && RelError(e, p) >= 0
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestLinFitRecoversLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	slope, intercept, err := LinFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(slope, 3) || !almost(intercept, 7) {
		t.Fatalf("fit = %v, %v; want 3, 7", slope, intercept)
	}
}

func TestLinFitErrors(t *testing.T) {
	if _, _, err := LinFit([]float64{1}, []float64{2}); err == nil {
		t.Error("single-point fit did not error")
	}
	if _, _, err := LinFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths did not error")
	}
	if _, _, err := LinFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate (vertical) fit did not error")
	}
}

func TestLinFitPropertyExactOnLines(t *testing.T) {
	f := func(a, b int8) bool {
		slope := float64(a)
		intercept := float64(b)
		xs := []float64{0, 1, 2, 5, 9}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + intercept
		}
		s, ic, err := LinFit(xs, ys)
		return err == nil && math.Abs(s-slope) < 1e-6 && math.Abs(ic-intercept) < 1e-6
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestPearsonR(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	up := []float64{2, 4, 6, 8}
	down := []float64{8, 6, 4, 2}
	if got := PearsonR(xs, up); !almost(got, 1) {
		t.Errorf("PearsonR increasing = %v, want 1", got)
	}
	if got := PearsonR(xs, down); !almost(got, -1) {
		t.Errorf("PearsonR decreasing = %v, want -1", got)
	}
	if got := PearsonR(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("PearsonR constant = %v, want 0", got)
	}
	if got := PearsonR(xs, xs[:2]); got != 0 {
		t.Errorf("PearsonR mismatched = %v, want 0", got)
	}
}

func TestQuantileRejectsNonFinite(t *testing.T) {
	for _, xs := range [][]float64{
		{1, math.NaN(), 3},
		{math.Inf(1), 2},
		{1, 2, math.Inf(-1)},
	} {
		if v, err := Quantile(xs, 0.5); err != ErrNonFinite {
			t.Errorf("Quantile(%v) = %v, %v; want ErrNonFinite", xs, v, err)
		}
	}
	if _, err := Quantile([]float64{1, 2}, math.NaN()); err == nil {
		t.Error("Quantile with NaN q accepted")
	}
	if v, err := Quantile([]float64{1, 2, 3}, 0.5); err != nil || v != 2 {
		t.Errorf("finite Quantile = %v, %v", v, err)
	}
}

func TestLinFitRejectsNonFinite(t *testing.T) {
	cases := []struct{ xs, ys []float64 }{
		{[]float64{1, math.NaN()}, []float64{1, 2}},
		{[]float64{1, 2}, []float64{math.Inf(1), 2}},
		{[]float64{math.Inf(-1), 2}, []float64{1, 2}},
	}
	for _, c := range cases {
		if _, _, err := LinFit(c.xs, c.ys); err != ErrNonFinite {
			t.Errorf("LinFit(%v, %v) err = %v, want ErrNonFinite", c.xs, c.ys, err)
		}
	}
	slope, intercept, err := LinFit([]float64{1, 2, 3}, []float64{3, 5, 7})
	if err != nil || !almost(slope, 2) || !almost(intercept, 1) {
		t.Errorf("finite LinFit = %v, %v, %v", slope, intercept, err)
	}
}

func TestRelErrorNonFiniteInputsReportNaN(t *testing.T) {
	cases := [][2]float64{
		{math.NaN(), 1},
		{1, math.NaN()},
		{math.Inf(1), 1},
		{1, math.Inf(-1)},
		{math.Inf(1), math.Inf(1)},
	}
	for _, c := range cases {
		if got := RelError(c[0], c[1]); !math.IsNaN(got) {
			t.Errorf("RelError(%v, %v) = %v, want NaN", c[0], c[1], got)
		}
	}
	// The documented finite semantics are unchanged.
	if got := RelError(0, 0); got != 0 {
		t.Errorf("RelError(0,0) = %v, want 0", got)
	}
	if got := RelError(0, 1); !math.IsInf(got, 1) {
		t.Errorf("RelError(0,1) = %v, want +Inf", got)
	}
	if got := RelError(10, 8); !almost(got, 0.2) {
		t.Errorf("RelError(10,8) = %v, want 0.2", got)
	}
}
