// Package stats provides the small numerical toolkit the rest of the
// repository is built on: descriptive statistics (weighted means,
// coefficients of variation, quantiles), least-squares curve fitting for the
// concave distance-to-price mapping of the paper's Figure 6, and the
// log-sum-exp and softmax kernels of the logit model.
//
// Everything here is deterministic given its inputs; nothing reaches for
// the network or the clock.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// ErrMismatch is returned when parallel slices differ in length.
var ErrMismatch = errors.New("stats: mismatched slice lengths")

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	// Kahan summation: the trace pipelines sum millions of flow byte
	// counts spanning many orders of magnitude.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// WeightedMean returns Σ w_i·x_i / Σ w_i. Weights must be non-negative and
// must not all be zero.
func WeightedMean(xs, ws []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ws) {
		return 0, ErrMismatch
	}
	var num, den float64
	for i, x := range xs {
		if ws[i] < 0 {
			return 0, errors.New("stats: negative weight")
		}
		num += ws[i] * x
		den += ws[i]
	}
	if den == 0 {
		return 0, errors.New("stats: zero total weight")
	}
	return num / den, nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// CV returns the coefficient of variation (standard deviation divided by
// mean) of xs. The mean must be non-zero. Table 1 of the paper reports this
// statistic for both flow distances and flow demands.
func CV(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, errors.New("stats: zero mean")
	}
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	return sd / m, nil
}

// WeightedVariance returns the weighted population variance of xs, i.e.
// Σw(x−m)²/Σw with m the weighted mean.
func WeightedVariance(xs, ws []float64) (float64, error) {
	m, err := WeightedMean(xs, ws)
	if err != nil {
		return 0, err
	}
	var num, den float64
	for i, x := range xs {
		d := x - m
		num += ws[i] * d * d
		den += ws[i]
	}
	return num / den, nil
}

// WeightedCV returns the weighted coefficient of variation of xs.
func WeightedCV(xs, ws []float64) (float64, error) {
	m, err := WeightedMean(xs, ws)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, errors.New("stats: zero weighted mean")
	}
	v, err := WeightedVariance(xs, ws)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v) / m, nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MinMax returns the smallest and largest elements of xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// LogSumExp computes ln(Σ e^{x_i}) without overflow. It is the workhorse of
// the logit model's bundle valuation (Eq. 10 of the paper).
func LogSumExp(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	_, max, _ := MinMax(xs)
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum), nil
}

// Softmax returns weights proportional to e^{x_i}, summing to one. It is
// used by the logit bundle-cost average (Eq. 11 of the paper).
func Softmax(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	out := make([]float64, len(xs))
	return out, SoftmaxInto(out, xs)
}

// SoftmaxInto is Softmax writing into dst (len(dst) must equal len(xs)),
// for hot paths that reuse a weights buffer across calls — e.g. logit
// profit evaluation, once per priced partition. The floating-point
// operation order is identical to Softmax.
func SoftmaxInto(dst, xs []float64) error {
	if len(xs) == 0 {
		return ErrEmpty
	}
	if len(dst) != len(xs) {
		return errors.New("stats: softmax dst/xs length mismatch")
	}
	_, max, _ := MinMax(xs)
	var sum float64
	for i, x := range xs {
		dst[i] = math.Exp(x - max)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
	return nil
}
