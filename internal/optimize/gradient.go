package optimize

import (
	"errors"
	"math"
)

// GradientConfig tunes GradientAscent. Zero values select sensible
// defaults.
type GradientConfig struct {
	// Step is the initial step size (default 1.0); each iteration
	// backtracks from it until the objective improves.
	Step float64
	// Tol stops the ascent when the objective improves by less than Tol
	// between iterations (default 1e-10).
	Tol float64
	// MaxIter bounds the number of ascent iterations (default 10000).
	MaxIter int
	// Lower bounds every coordinate from below (projection); default
	// −Inf means unconstrained.
	Lower float64
	// FDStep is the central finite-difference step for the numeric
	// gradient (default 1e-6, scaled by max(1, |x_i|)).
	FDStep float64
}

func (c *GradientConfig) defaults() {
	if c.Step == 0 {
		c.Step = 1.0
	}
	if c.Tol == 0 {
		c.Tol = 1e-10
	}
	if c.MaxIter == 0 {
		c.MaxIter = 10000
	}
	if c.Lower == 0 {
		c.Lower = math.Inf(-1)
	}
	if c.FDStep == 0 {
		c.FDStep = 1e-6
	}
}

// GradientAscent maximizes f starting from x0 using a numeric gradient
// with backtracking line search and projection onto x ≥ cfg.Lower. This is
// the general-purpose heuristic the paper describes for finding logit
// profit-maximizing prices ("a heuristic based on gradient descent that
// starts from a fixed set of prices and greedily updates them towards the
// optimum", §3.2.2); the econ package prices logit bundles by the
// equal markup's closed form instead, and the two are cross-checked in
// tests.
func GradientAscent(f func([]float64) float64, x0 []float64, cfg GradientConfig) ([]float64, float64, error) {
	if len(x0) == 0 {
		return nil, 0, errors.New("optimize: empty start point")
	}
	cfg.defaults()
	x := append([]float64(nil), x0...)
	project(x, cfg.Lower)
	fx := f(x)
	if math.IsNaN(fx) {
		return nil, 0, errors.New("optimize: objective is NaN at start")
	}
	grad := make([]float64, len(x))
	trial := make([]float64, len(x))
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// Central-difference gradient.
		var gnorm float64
		for i := range x {
			h := cfg.FDStep * math.Max(1, math.Abs(x[i]))
			orig := x[i]
			x[i] = orig + h
			fp := f(x)
			x[i] = orig - h
			fm := f(x)
			x[i] = orig
			grad[i] = (fp - fm) / (2 * h)
			gnorm += grad[i] * grad[i]
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm < 1e-14 {
			return x, fx, nil
		}
		// Backtracking line search along the NORMALIZED ascent direction.
		// Raw-gradient steps are catastrophic for logit profit surfaces:
		// the gradient at a cheap starting point is huge, a single step
		// overshoots onto the exponentially flat region where finite
		// differences read zero, and the ascent strands there.
		step := cfg.Step
		improved := false
		for back := 0; back < 60; back++ {
			for i := range x {
				trial[i] = x[i] + step*grad[i]/gnorm
			}
			project(trial, cfg.Lower)
			ft := f(trial)
			if ft > fx {
				copy(x, trial)
				improvedBy := ft - fx
				fx = ft
				improved = true
				if improvedBy < cfg.Tol {
					return x, fx, nil
				}
				break
			}
			step /= 2
		}
		if !improved {
			return x, fx, nil
		}
	}
	return x, fx, nil
}

// project clamps every coordinate of x to at least lower.
func project(x []float64, lower float64) {
	for i := range x {
		if x[i] < lower {
			x[i] = lower
		}
	}
}
