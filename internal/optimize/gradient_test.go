package optimize

import (
	"math"
	"testing"
)

func TestGradientAscentQuadratic(t *testing.T) {
	// f(x, y) = −(x−1)² − 2(y+2)², max at (1, −2).
	f := func(x []float64) float64 {
		return -(x[0]-1)*(x[0]-1) - 2*(x[1]+2)*(x[1]+2)
	}
	x, fx, err := GradientAscent(f, []float64{10, 10}, GradientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]+2) > 1e-3 {
		t.Fatalf("argmax = %v, want (1, -2)", x)
	}
	if fx < -1e-5 {
		t.Fatalf("max value = %v, want ~0", fx)
	}
}

func TestGradientAscentRespectsLowerBound(t *testing.T) {
	// Unconstrained max at x = −5; with Lower = 0 the solution is 0.
	f := func(x []float64) float64 { return -(x[0] + 5) * (x[0] + 5) }
	x, _, err := GradientAscent(f, []float64{3}, GradientConfig{Lower: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] < 0 || x[0] > 1e-3 {
		t.Fatalf("bounded argmax = %v, want ~0", x[0])
	}
}

func TestGradientAscentErrors(t *testing.T) {
	if _, _, err := GradientAscent(func([]float64) float64 { return 0 }, nil, GradientConfig{}); err == nil {
		t.Error("expected error for empty start")
	}
	if _, _, err := GradientAscent(func([]float64) float64 { return math.NaN() },
		[]float64{1}, GradientConfig{}); err == nil {
		t.Error("expected error for NaN objective")
	}
}
