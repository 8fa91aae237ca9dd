package stats

import "errors"

// Linspace returns n evenly spaced points from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) ([]float64, error) {
	if n < 2 {
		return nil, errors.New("stats: linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out, nil
}
