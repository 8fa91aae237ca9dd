package econ

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

func TestCEDRejectsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{1, 0.5, 0, -2, math.Inf(1), math.NaN()} {
		m := CED{Alpha: alpha}
		if _, err := m.FitValuations([]float64{1}, 1); err == nil {
			t.Errorf("alpha=%v: expected error", alpha)
		}
	}
}

func TestCEDFigure4(t *testing.T) {
	// Figure 4 of the paper: two flows with identical demand
	// (v = 1, α = 2) but costs 1 and 2. The first has optimal price
	// p* = 2 and profit 0.25; the second p* = 4 and profit 0.125.
	alpha := 2.0
	if p := CEDOptimalPrice(1, alpha); !almostEq(p, 2, 1e-12) {
		t.Fatalf("p*(c=1) = %v, want 2", p)
	}
	if p := CEDOptimalPrice(2, alpha); !almostEq(p, 4, 1e-12) {
		t.Fatalf("p*(c=2) = %v, want 4", p)
	}
	if pi := CEDFlowProfit(1, 2, 1, alpha); !almostEq(pi, 0.25, 1e-12) {
		t.Fatalf("π(c=1) = %v, want 0.25", pi)
	}
	if pi := CEDFlowProfit(1, 4, 2, alpha); !almostEq(pi, 0.125, 1e-12) {
		t.Fatalf("π(c=2) = %v, want 0.125", pi)
	}
}

func TestCEDOptimalPriceIsOptimal(t *testing.T) {
	// Perturbing the Eq. 4 price in either direction can only lose profit.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := 1.05 + r.Float64()*8
		v := 0.1 + r.Float64()*10
		c := 0.1 + r.Float64()*10
		p := CEDOptimalPrice(c, alpha)
		best := CEDFlowProfit(v, p, c, alpha)
		for _, eps := range []float64{0.9, 0.99, 1.01, 1.1} {
			if CEDFlowProfit(v, p*eps, c, alpha) > best+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCEDFitValuationsRoundTrip(t *testing.T) {
	// The fitted valuation must reproduce the observed demand at the
	// blended rate: Q(v_i, P0) = q_i.
	m := CED{Alpha: 1.1}
	p0 := 20.0
	demands := []float64{0.5, 3, 42, 1e4}
	vals, err := m.FitValuations(demands, p0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		q := m.Quantity(v, p0)
		if !almostEq(q, demands[i], 1e-9*demands[i]) {
			t.Errorf("flow %d: Q = %v, want %v", i, q, demands[i])
		}
	}
}

func TestCEDFitValuationsErrors(t *testing.T) {
	m := CED{Alpha: 2}
	if _, err := m.FitValuations([]float64{1, 0}, 20); err == nil {
		t.Error("expected error for zero demand")
	}
	if _, err := m.FitValuations([]float64{1}, 0); err == nil {
		t.Error("expected error for zero blended rate")
	}
}

func TestCEDBundlePriceSingletonMatchesEq4(t *testing.T) {
	m := CED{Alpha: 1.7}
	flows := []Flow{{ID: "x", Demand: 1, Valuation: 3, Cost: 2}}
	p, err := m.BundlePrice(flows, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if want := CEDOptimalPrice(2, 1.7); !almostEq(p, want, 1e-12) {
		t.Fatalf("bundle price = %v, want %v", p, want)
	}
}

func TestCEDBundlePriceIsWeightedOptimum(t *testing.T) {
	// The Eq. 5 price must beat any perturbation for the whole bundle.
	m := CED{Alpha: 1.3}
	flows := randomFlows(t, 8, 11, m, 20)
	block := []int{0, 1, 2, 3, 4, 5, 6, 7}
	p, err := m.BundlePrice(flows, block)
	if err != nil {
		t.Fatal(err)
	}
	profitAt := func(price float64) float64 {
		var pi float64
		for _, i := range block {
			pi += CEDFlowProfit(flows[i].Valuation, price, flows[i].Cost, m.Alpha)
		}
		return pi
	}
	best := profitAt(p)
	for _, eps := range []float64{0.9, 0.95, 1.05, 1.2} {
		if profitAt(p*eps) > best+1e-9 {
			t.Fatalf("price %v beats Eq.5 price %v", p*eps, p)
		}
	}
}

func TestCEDCalibrationMakesBlendedRateOptimal(t *testing.T) {
	// After CalibrateScale, the optimal single-bundle price must equal
	// the blended rate P0 — the identifying assumption of §4.1.3.
	m := CED{Alpha: 1.1}
	p0 := 20.0
	flows := randomFlows(t, 25, 3, m, p0)
	p, err := m.BundlePrice(flows, OneBundle(len(flows))[0])
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p, p0, 1e-6) {
		t.Fatalf("single-bundle optimum = %v, want blended rate %v", p, p0)
	}
}

func TestCEDCalibrateScaleNeverClamps(t *testing.T) {
	m := CED{Alpha: 3}
	_, clamped, err := m.CalibrateScale([]float64{1, 2}, []float64{1, 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if clamped {
		t.Error("CED calibration should never clamp")
	}
}

func TestCEDCalibrateScaleErrors(t *testing.T) {
	m := CED{Alpha: 2}
	if _, _, err := m.CalibrateScale([]float64{1}, []float64{1, 2}, 5); err == nil {
		t.Error("expected mismatch error")
	}
	if _, _, err := m.CalibrateScale(nil, nil, 5); err == nil {
		t.Error("expected empty error")
	}
	if _, _, err := m.CalibrateScale([]float64{1}, []float64{0}, 5); err == nil {
		t.Error("expected error for zero relative cost")
	}
	if _, _, err := m.CalibrateScale([]float64{-1}, []float64{1}, 5); err == nil {
		t.Error("expected error for negative valuation")
	}
	if _, _, err := m.CalibrateScale([]float64{1}, []float64{1}, -5); err == nil {
		t.Error("expected error for negative p0")
	}
}

func TestCEDPotentialProfitEqualsStandaloneMax(t *testing.T) {
	m := CED{Alpha: 1.4}
	flows := randomFlows(t, 10, 5, m, 20)
	pots, err := m.PotentialProfits(flows)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range flows {
		p := CEDOptimalPrice(f.Cost, m.Alpha)
		want := CEDFlowProfit(f.Valuation, p, f.Cost, m.Alpha)
		if !almostEq(pots[i], want, 1e-9*math.Abs(want)) {
			t.Errorf("flow %d: potential = %v, want %v", i, pots[i], want)
		}
	}
}

func TestCEDMaxProfitDominatesBundles(t *testing.T) {
	m := CED{Alpha: 1.2}
	flows := randomFlows(t, 12, 9, m, 20)
	max, err := m.MaxProfit(flows)
	if err != nil {
		t.Fatal(err)
	}
	partitions := [][][]int{
		OneBundle(12),
		{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}},
		{{0, 11}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for _, parts := range partitions {
		prices, err := m.PriceBundles(flows, parts)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := m.Profit(flows, parts, prices)
		if err != nil {
			t.Fatal(err)
		}
		if pi > max+1e-9*max {
			t.Fatalf("partition %v profit %v exceeds max %v", parts, pi, max)
		}
	}
}

func TestCEDProfitValidations(t *testing.T) {
	m := CED{Alpha: 2}
	flows := []Flow{{ID: "a", Demand: 1, Valuation: 1, Cost: 1}}
	if _, err := m.Profit(flows, [][]int{{0}}, []float64{1, 2}); err == nil {
		t.Error("expected error for price-count mismatch")
	}
	if _, err := m.Profit(flows, [][]int{{0}}, []float64{-1}); err == nil {
		t.Error("expected error for negative price")
	}
	if _, err := m.Profit(flows, [][]int{{0, 0}}, []float64{1}); err == nil {
		t.Error("expected error for bad partition")
	}
}

func TestCEDBlendedProfit(t *testing.T) {
	m := CED{Alpha: 2}
	flows := []Flow{
		{ID: "a", Demand: 1, Valuation: 2, Cost: 1},
		{ID: "b", Demand: 1, Valuation: 4, Cost: 0.5},
	}
	got, err := m.BlendedProfit(flows, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := CEDFlowProfit(2, 2, 1, 2) + CEDFlowProfit(4, 2, 0.5, 2)
	if !almostEq(got, want, 1e-12) {
		t.Fatalf("BlendedProfit = %v, want %v", got, want)
	}
}

func TestCEDSurplusFiniteAndDecreasing(t *testing.T) {
	// Surplus shrinks as price rises.
	s1 := CEDSurplus(1, 1, 2)
	s2 := CEDSurplus(1, 2, 2)
	if !(s1 > s2 && s2 > 0) {
		t.Fatalf("surplus not decreasing: s(1)=%v s(2)=%v", s1, s2)
	}
	// Closed form: v^α p^{1−α}/(α−1) = 1·(1/2)/1 = 0.5 at v=1,p=2,α=2.
	if !almostEq(s2, 0.5, 1e-12) {
		t.Fatalf("surplus = %v, want 0.5", s2)
	}
}

func TestCEDSurplusMethodMatchesPerFlow(t *testing.T) {
	m := CED{Alpha: 1.5}
	flows := randomFlows(t, 6, 3, m, 20)
	parts := [][]int{{0, 1, 2}, {3, 4, 5}}
	prices, err := m.PriceBundles(flows, parts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Surplus(flows, parts, prices)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for b, block := range parts {
		for _, i := range block {
			want += CEDSurplus(flows[i].Valuation, prices[b], m.Alpha)
		}
	}
	if !almostEq(got, want, 1e-9*want) {
		t.Fatalf("Surplus = %v, want %v", got, want)
	}
	if _, err := m.Surplus(flows, parts, []float64{1}); err == nil {
		t.Error("expected price-count error")
	}
}
