package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
}

func TestSumKahanPrecision(t *testing.T) {
	// 1e16 + many small values: naive summation loses the small terms.
	xs := []float64{1e16}
	for i := 0; i < 1000; i++ {
		xs = append(xs, 1.0)
	}
	got := Sum(xs)
	want := 1e16 + 1000
	if got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", m)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestWeightedMean(t *testing.T) {
	m, err := WeightedMean([]float64{1, 10}, []float64{9, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m, 1.9, 1e-12) {
		t.Fatalf("WeightedMean = %v, want 1.9", m)
	}
}

func TestWeightedMeanErrors(t *testing.T) {
	if _, err := WeightedMean(nil, nil); err != ErrEmpty {
		t.Errorf("empty: err = %v", err)
	}
	if _, err := WeightedMean([]float64{1}, []float64{1, 2}); err != ErrMismatch {
		t.Errorf("mismatch: err = %v", err)
	}
	if _, err := WeightedMean([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight: expected error")
	}
	if _, err := WeightedMean([]float64{1}, []float64{0}); err == nil {
		t.Error("zero weights: expected error")
	}
}

func TestWeightedMeanEqualWeightsMatchesMean(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		ws := make([]float64, len(xs))
		for i := range ws {
			ws[i] = 1
		}
		wm, err1 := WeightedMean(xs, ws)
		m, err2 := Mean(xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEq(wm, m, 1e-9*(1+math.Abs(m)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceAndCV(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", v)
	}
	cv, err := CV([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(cv, 2.0/5.0, 1e-12) {
		t.Fatalf("CV = %v, want 0.4", cv)
	}
}

func TestCVZeroMean(t *testing.T) {
	if _, err := CV([]float64{-1, 1}); err == nil {
		t.Fatal("expected error for zero mean")
	}
}

func TestCVScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = 1 + r.Float64()*10
		}
		cv1, err := CV(xs)
		if err != nil {
			return false
		}
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = 7.5 * x
		}
		cv2, err := CV(scaled)
		if err != nil {
			return false
		}
		return almostEq(cv1, cv2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedCV(t *testing.T) {
	// With all the weight on a single point the weighted CV is zero.
	cv, err := WeightedCV([]float64{3, 100}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(cv, 0, 1e-12) {
		t.Fatalf("WeightedCV = %v, want 0", cv)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil {
		t.Fatal(err)
	}
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
}

func TestLogSumExpStability(t *testing.T) {
	// Would overflow naive exp.
	got, err := LogSumExp([]float64{1000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 + math.Log(2)
	if !almostEq(got, want, 1e-9) {
		t.Fatalf("LogSumExp = %v, want %v", got, want)
	}
}

func TestLogSumExpMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = r.Float64()*10 - 5
		}
		got, err := LogSumExp(xs)
		if err != nil {
			return false
		}
		var naive float64
		for _, x := range xs {
			naive += math.Exp(x)
		}
		return almostEq(got, math.Log(naive), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+r.Intn(20))
		for i := range xs {
			xs[i] = r.Float64()*200 - 100
		}
		w, err := Softmax(xs)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range w {
			if v < 0 {
				return false
			}
			sum += v
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
