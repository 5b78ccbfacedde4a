// Package stats provides the small numerical helpers used by the
// prediction framework and the experiment harness: summary statistics,
// least-squares fits, and relative prediction error.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// ErrNonFinite is returned by reductions and fits whose input contains
// NaN or ±Inf: order statistics and least squares are meaningless on
// such samples, and silently propagating them poisons every downstream
// error table.
var ErrNonFinite = errors.New("stats: non-finite sample")

// checkFinite reports ErrNonFinite if xs contains NaN or ±Inf.
func checkFinite(xs []float64) error {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return ErrNonFinite
		}
	}
	return nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than two
// samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. Samples containing NaN or ±Inf
// are rejected with ErrNonFinite: sort.Float64s places NaNs arbitrarily,
// so order statistics over them are garbage.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	if err := checkFinite(xs); err != nil {
		return 0, err
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// RelError returns |exact-predicted| / |exact|, the error measure used
// throughout the paper's evaluation (E = |T_exact − T_predicted| / T_exact).
// A zero exact value with a nonzero prediction reports +Inf. A non-finite
// input (NaN or ±Inf on either side) reports NaN explicitly, so callers
// building error tables can filter undefined comparisons with one
// math.IsNaN check instead of inheriting whatever the subtraction
// happened to produce.
func RelError(exact, predicted float64) float64 {
	if math.IsNaN(exact) || math.IsInf(exact, 0) ||
		math.IsNaN(predicted) || math.IsInf(predicted, 0) {
		return math.NaN()
	}
	if exact == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(exact-predicted) / math.Abs(exact)
}

// LinFit fits y = slope*x + intercept by least squares.
// It needs at least two distinct x values, all finite (a single NaN or
// ±Inf sample is rejected with ErrNonFinite rather than silently turning
// both coefficients into NaN).
func LinFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return 0, 0, errors.New("stats: need at least two points for a fit")
	}
	if err := checkFinite(xs); err != nil {
		return 0, 0, err
	}
	if err := checkFinite(ys); err != nil {
		return 0, 0, err
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, errors.New("stats: degenerate fit (all x equal)")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	return slope, intercept, nil
}

// PearsonR returns the Pearson correlation coefficient of the paired
// samples, or 0 when either sample is constant.
func PearsonR(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, syy, sxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
