package econ

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tieredpricing/internal/stats"
)

func TestLogitRejectsBadParams(t *testing.T) {
	bad := []Logit{
		{Alpha: 0, S0: 0.2},
		{Alpha: -1, S0: 0.2},
		{Alpha: math.Inf(1), S0: 0.2},
		{Alpha: 1, S0: 0},
		{Alpha: 1, S0: 1},
		{Alpha: 1, S0: -0.5},
	}
	for _, m := range bad {
		if _, err := m.FitValuations([]float64{1}, 1); err == nil {
			t.Errorf("%+v: expected error", m)
		}
	}
}

func TestLogitSharesSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Logit{Alpha: 0.1 + r.Float64()*3, S0: 0.2}
		n := 1 + r.Intn(15)
		vals := make([]float64, n)
		prices := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64()*40 - 10
			prices[i] = r.Float64() * 30
		}
		shares, s0, err := m.Shares(vals, prices)
		if err != nil {
			return false
		}
		sum := s0
		for _, s := range shares {
			if s < 0 {
				return false
			}
			sum += s
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogitSharesMismatch(t *testing.T) {
	m := Logit{Alpha: 1, S0: 0.2}
	if _, _, err := m.Shares([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected mismatch error")
	}
}

func TestLogitFitValuationsRoundTrip(t *testing.T) {
	// At the blended rate the fitted valuations must reproduce both the
	// assumed no-purchase share and the observed demands.
	m := Logit{Alpha: 1.1, S0: 0.2}
	p0 := 20.0
	demands := []float64{1, 5, 0.2, 40}
	vals, err := m.FitValuations(demands, p0)
	if err != nil {
		t.Fatal(err)
	}
	prices := []float64{p0, p0, p0, p0}
	shares, s0, err := m.Shares(vals, prices)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s0, m.S0, 1e-9) {
		t.Fatalf("s0 at blended rate = %v, want %v", s0, m.S0)
	}
	flows := make([]Flow, len(demands))
	for i := range flows {
		flows[i] = Flow{Demand: demands[i], Valuation: vals[i], Cost: 1}
	}
	k := m.MarketSize(flows)
	for i, q := range demands {
		if got := k * shares[i]; !almostEq(got, q, 1e-9*q) {
			t.Errorf("flow %d: K·s = %v, want %v", i, got, q)
		}
	}
}

func TestLogitBundleValuationAggregation(t *testing.T) {
	// A bundle priced at P must capture exactly the same market share as
	// its member flows priced individually at P (Eq. 10 is defined to
	// make this hold).
	m := Logit{Alpha: 0.7, S0: 0.2}
	vals := []float64{3, 5, 4.2}
	vb, err := m.BundleValuation(vals)
	if err != nil {
		t.Fatal(err)
	}
	price := 2.5
	sharesInd, s0Ind, err := m.Shares(vals, []float64{price, price, price})
	if err != nil {
		t.Fatal(err)
	}
	var sumInd float64
	for _, s := range sharesInd {
		sumInd += s
	}
	sharesAgg, s0Agg, err := m.Shares([]float64{vb}, []float64{price})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sharesAgg[0], sumInd, 1e-9) || !almostEq(s0Agg, s0Ind, 1e-9) {
		t.Fatalf("aggregated share %v (s0 %v) != summed %v (s0 %v)",
			sharesAgg[0], s0Agg, sumInd, s0Ind)
	}
}

func TestLogitBundleCostIsConvexCombination(t *testing.T) {
	m := Logit{Alpha: 1.5, S0: 0.3}
	costs := []float64{1, 10}
	vals := []float64{2, 2}
	c, err := m.BundleCost(costs, vals)
	if err != nil {
		t.Fatal(err)
	}
	// Equal valuations ⇒ simple average.
	if !almostEq(c, 5.5, 1e-9) {
		t.Fatalf("BundleCost = %v, want 5.5", c)
	}
	// Higher-valuation flow dominates the average.
	c2, err := m.BundleCost(costs, []float64{2, 20})
	if err != nil {
		t.Fatal(err)
	}
	if !(c2 > 9.9) {
		t.Fatalf("BundleCost = %v, want ≈10", c2)
	}
}

func TestLogitCalibrationMakesBlendedRateOptimal(t *testing.T) {
	m := Logit{Alpha: 1.1, S0: 0.2}
	p0 := 20.0
	flows := randomFlows(t, 20, 17, m, p0)
	prices, err := m.PriceBundles(flows, OneBundle(len(flows)))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(prices[0], p0, 1e-6*p0) {
		t.Fatalf("single-bundle optimum = %v, want blended rate %v", prices[0], p0)
	}
}

func TestLogitCalibrateScaleClampsInfeasible(t *testing.T) {
	// p0 < 1/(α·s0) makes the implied cost negative; γ must clamp.
	m := Logit{Alpha: 1, S0: 0.05} // markup = 20
	vals, err := m.FitValuations([]float64{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	gamma, clamped, err := m.CalibrateScale(vals, []float64{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !clamped {
		t.Error("expected clamped calibration")
	}
	if gamma <= 0 {
		t.Errorf("clamped gamma = %v, want positive", gamma)
	}
}

// logitEdgeFlows builds n flows whose exponents α(v − c) sit at x + j/n
// for j < n: every ln S a test needs, at costs from 1 to 6.
func logitEdgeFlows(alpha, x float64, n int) []Flow {
	flows := make([]Flow, n)
	for j := range flows {
		c := 1 + 5*float64(j)/float64(n)
		flows[j] = Flow{ID: "e", Demand: 1 + float64(j), Cost: c, Valuation: c + (x+float64(j)/float64(n))/alpha}
	}
	return flows
}

func TestLogitPriceBundlesSatisfiesFOC(t *testing.T) {
	// Eq. 9: at the solution every bundle's markup over its Eq. 11 cost
	// equals 1/(α·s0) with s0 the realized no-purchase share — on a
	// fitted market, where S itself overflows (ln S ≥ 700), where S/e
	// underflows and the markup is 1/α (ln S ≤ −750), and at the ends of
	// the α grid. MaxProfit is Profit at the singleton prices.
	parts := [][]int{{0, 3, 6}, {1, 4, 7}, {2, 5, 8}}
	cases := []struct {
		name  string
		m     Logit
		flows []Flow
	}{
		{"fitted", Logit{Alpha: 1.1, S0: 0.2}, randomFlows(t, 9, 23, Logit{Alpha: 1.1, S0: 0.2}, 20)},
		{"fitted α=1.001", Logit{Alpha: 1.001, S0: 0.2}, randomFlows(t, 9, 23, Logit{Alpha: 1.001, S0: 0.2}, 20)},
		{"fitted α=9", Logit{Alpha: 9, S0: 0.2}, randomFlows(t, 9, 23, Logit{Alpha: 9, S0: 0.2}, 20)},
		{"ln S ≥ 700", Logit{Alpha: 2, S0: 0.2}, logitEdgeFlows(2, 705, 9)},
		{"ln S ≤ −750", Logit{Alpha: 2, S0: 0.2}, logitEdgeFlows(2, -760, 9)},
		{"ln S ≥ 700, α=1.001", Logit{Alpha: 1.001, S0: 0.2}, logitEdgeFlows(1.001, 705, 9)},
		{"ln S ≤ −750, α=9", Logit{Alpha: 9, S0: 0.2}, logitEdgeFlows(9, -760, 9)},
	}
	for _, c := range cases {
		m, flows := c.m, c.flows
		prices, err := m.PriceBundles(flows, parts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		vals, costs := m.bundleAggregates(flows, parts)
		_, s0, err := m.Shares(vals, prices)
		if err != nil {
			t.Fatal(err)
		}
		markup := 1 / (m.Alpha * s0)
		for b := range parts {
			if !almostEq(prices[b]-costs[b], markup, 1e-6*markup) {
				t.Errorf("%s: bundle %d markup = %v, want %v", c.name, b, prices[b]-costs[b], markup)
			}
		}
		max, err := m.MaxProfit(flows)
		if err != nil {
			t.Fatal(err)
		}
		single, err := m.PriceBundles(flows, Singletons(len(flows)))
		if err != nil {
			t.Fatal(err)
		}
		pi, err := m.Profit(flows, Singletons(len(flows)), single)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(max, pi, 1e-12*max+1e-300) {
			t.Errorf("%s: MaxProfit %v, Profit at the singleton prices %v", c.name, max, pi)
		}
	}
}

func TestLogitPriceBundlesIsLocalOptimum(t *testing.T) {
	// No move away from the closed-form prices may increase profit:
	// neither one bundle's price alone nor all of them at once, in every
	// sign pattern, at two step sizes. The second market is the one the
	// paper's §3.2.2 gradient heuristic was checked against.
	cases := []struct {
		m     Logit
		seed  int64
		p0    float64
		parts [][]int
	}{
		{Logit{Alpha: 1.3, S0: 0.25}, 31, 15, [][]int{{0, 1}, {2, 3, 4}, {5, 6, 7}}},
		{Logit{Alpha: 1.1, S0: 0.2}, 5, 20, [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}}},
	}
	for _, c := range cases {
		m := c.m
		flows := randomFlows(t, 8, c.seed, m, c.p0)
		prices, err := m.PriceBundles(flows, c.parts)
		if err != nil {
			t.Fatal(err)
		}
		base, err := m.Profit(flows, c.parts, prices)
		if err != nil {
			t.Fatal(err)
		}
		// try moves to prices[b]·scale(b) and returns the relative
		// change in profit.
		try := func(scale func(b int) float64) float64 {
			mod := append([]float64(nil), prices...)
			for b := range mod {
				mod[b] *= scale(b)
			}
			pi, err := m.Profit(flows, c.parts, mod)
			if err != nil {
				t.Fatal(err)
			}
			if pi > base+1e-7*math.Abs(base) {
				t.Fatalf("%+v: prices %v → %v improve profit %v → %v", m, prices, mod, base, pi)
			}
			return (pi - base) / math.Abs(base)
		}
		bestJoint := math.Inf(-1)
		for _, step := range []float64{0.03, 0.001} {
			for b := range prices {
				for _, eps := range []float64{1 - step, 1 + step} {
					try(func(i int) float64 {
						if i == b {
							return eps
						}
						return 1
					})
				}
			}
			for signs := 0; signs < 1<<len(prices); signs++ {
				bestJoint = math.Max(bestJoint, try(func(i int) float64 {
					if signs&(1<<i) != 0 {
						return 1 + step
					}
					return 1 - step
				}))
			}
		}
		t.Logf("%+v: best joint move's relative profit change %.3g", m, bestJoint)
	}
}

func TestLogitProfitPerFlowMatchesBundleAggregation(t *testing.T) {
	// Π computed per flow (Eq. 8) must equal Π computed on the Eq. 10/11
	// bundle aggregates.
	m := Logit{Alpha: 0.9, S0: 0.2}
	flows := randomFlows(t, 10, 41, m, 20)
	parts := [][]int{{0, 1, 2, 3, 4}, {5, 6}, {7, 8, 9}}
	prices, err := m.PriceBundles(flows, parts)
	if err != nil {
		t.Fatal(err)
	}
	perFlow, err := m.Profit(flows, parts, prices)
	if err != nil {
		t.Fatal(err)
	}
	vals, costs := m.bundleAggregates(flows, parts)
	shares, _, err := m.Shares(vals, prices)
	if err != nil {
		t.Fatal(err)
	}
	k := m.MarketSize(flows)
	var agg float64
	for b := range parts {
		agg += k * shares[b] * (prices[b] - costs[b])
	}
	if !almostEq(perFlow, agg, 1e-6*math.Abs(agg)) {
		t.Fatalf("per-flow profit %v != aggregated %v", perFlow, agg)
	}
}

func TestLogitMaxProfitDominatesBundles(t *testing.T) {
	m := Logit{Alpha: 1.1, S0: 0.2}
	flows := randomFlows(t, 12, 53, m, 20)
	max, err := m.MaxProfit(flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range [][][]int{
		OneBundle(12),
		{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}},
	} {
		prices, err := m.PriceBundles(flows, parts)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := m.Profit(flows, parts, prices)
		if err != nil {
			t.Fatal(err)
		}
		if pi > max+1e-7*max {
			t.Fatalf("partition profit %v exceeds max %v", pi, max)
		}
	}
}

func TestLogitPotentialProfitsProportionalToDemand(t *testing.T) {
	// Eq. 13: π_i ∝ q_i.
	m := Logit{Alpha: 1.1, S0: 0.2}
	flows := randomFlows(t, 6, 61, m, 20)
	pots, err := m.PotentialProfits(flows)
	if err != nil {
		t.Fatal(err)
	}
	ratio := pots[0] / flows[0].Demand
	for i := range flows {
		if !almostEq(pots[i]/flows[i].Demand, ratio, 1e-9*ratio) {
			t.Errorf("flow %d: potential/demand = %v, want %v",
				i, pots[i]/flows[i].Demand, ratio)
		}
	}
}

func TestLogitSurplusDecreasingInPrice(t *testing.T) {
	m := Logit{Alpha: 1, S0: 0.2}
	flows := randomFlows(t, 4, 71, m, 10)
	one := OneBundle(4)
	s1, err := m.Surplus(flows, one, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Surplus(flows, one, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	if !(s1 > s2) {
		t.Fatalf("surplus not decreasing: s(5)=%v s(8)=%v", s1, s2)
	}
}

func TestLogitMarketSize(t *testing.T) {
	m := Logit{Alpha: 1, S0: 0.2}
	flows := []Flow{{Demand: 4}, {Demand: 4}}
	if k := m.MarketSize(flows); !almostEq(k, 10, 1e-12) {
		t.Fatalf("MarketSize = %v, want 10", k)
	}
}

func TestLogitDegenerateMarketDoesNotHang(t *testing.T) {
	// Valuations far below cost: the market collapses; PriceBundles must
	// still terminate with finite prices ≥ cost — c + 1/α once S/e
	// underflows — and so must a market whose S overflows.
	cases := []struct {
		m     Logit
		flows []Flow
	}{
		{Logit{Alpha: 2, S0: 0.2}, []Flow{
			{ID: "a", Demand: 1, Valuation: 0.001, Cost: 1000},
			{ID: "b", Demand: 1, Valuation: 0.002, Cost: 2000},
		}},
		{Logit{Alpha: 1.001, S0: 0.2}, logitEdgeFlows(1.001, -800, 2)},
		{Logit{Alpha: 9, S0: 0.2}, logitEdgeFlows(9, -800, 2)},
		{Logit{Alpha: 1.001, S0: 0.2}, logitEdgeFlows(1.001, 800, 2)},
		{Logit{Alpha: 9, S0: 0.2}, logitEdgeFlows(9, 800, 2)},
	}
	for _, c := range cases {
		prices, err := c.m.PriceBundles(c.flows, Singletons(2))
		if err != nil {
			t.Fatal(err)
		}
		for b, p := range prices {
			f := c.flows[b]
			if math.IsNaN(p) || math.IsInf(p, 0) || p < f.Cost {
				t.Fatalf("α=%v: degenerate price[%d] = %v", c.m.Alpha, b, p)
			}
			if f.Valuation < f.Cost && p != f.Cost+1/c.m.Alpha {
				t.Errorf("α=%v: collapsed market's price[%d] = %v, want c + 1/α = %v", c.m.Alpha, b, p, f.Cost+1/c.m.Alpha)
			}
		}
	}
}

// TestLogitNoFlows: an empty market is an error, not a zero price or
// profit, on both entry points of the equal-markup solve.
func TestLogitNoFlows(t *testing.T) {
	m := Logit{Alpha: 1.1, S0: 0.2}
	if _, err := m.MaxProfit(nil); err == nil || err.Error() != "econ: no flows" {
		t.Errorf("MaxProfit(nil): error %v, want econ: no flows", err)
	}
	if _, err := m.PriceBundles(nil, nil); err == nil || err.Error() != "econ: no flows" {
		t.Errorf("PriceBundles(nil, nil): error %v, want econ: no flows", err)
	}
}

// FuzzLogitClosedForm: over arbitrary finite α, valuations and costs,
// PriceBundles does not panic and either prices every bundle finitely
// at or above its Eq. 11 cost, or refuses a market whose exponents
// α(v_b − c_b) overflow; and the no-purchase share 1/(1 + w) it prices
// at satisfies s0 = 1/(1 + S·e^{−αm}) with αm = 1 + w, within the s0
// bound the 256-bit reference pins (refBounds) on the condition
// 2 + |ln S| + w of evaluating that residual in float64 — wherever that
// condition leaves the residual a digit.
func FuzzLogitClosedForm(f *testing.F) {
	seed := func(alpha float64, vc ...float64) {
		buf := make([]byte, 0, 8*len(vc))
		for _, x := range vc {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		f.Add(alpha, buf)
	}
	seed(1.1, 21, 15, 19, 14, 25, 16)
	seed(9, 100, 1, 90, 2)
	seed(1.001, -800, 1000, 3, 2)
	seed(2, 1e300, 1, -1e300, 5)
	seed(1e-300, 5, 3)
	seed(1e300, 5, 3, 4, 2)
	f.Fuzz(func(t *testing.T, alpha float64, raw []byte) {
		alpha = math.Abs(alpha)
		if !FinitePositive(alpha) {
			return
		}
		var flows []Flow
		for len(raw) >= 16 && len(flows) < 16 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			c := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])))
			raw = raw[16:]
			if math.IsNaN(v) || math.IsInf(v, 0) || !FinitePositive(c) {
				return
			}
			flows = append(flows, Flow{ID: "z", Demand: 1, Valuation: v, Cost: c})
		}
		if len(flows) == 0 {
			return
		}
		m := Logit{Alpha: alpha, S0: 0.2}
		half := [][]int{}
		for i := range flows {
			if i%2 == 0 {
				half = append(half, []int{i})
			} else {
				half[len(half)-1] = append(half[len(half)-1], i)
			}
		}
		for _, parts := range [][][]int{Singletons(len(flows)), OneBundle(len(flows)), half} {
			vals, costs := m.bundleAggregates(flows, parts)
			hi, lo := make([]float64, len(parts)), make([]float64, len(parts))
			finite := true
			for b := range parts {
				hi[b], lo[b] = m.exponent(vals[b], costs[b])
				finite = finite && !math.IsNaN(hi[b]) && !math.IsInf(hi[b], 0)
			}
			prices, err := m.PriceBundles(flows, parts)
			if err != nil {
				if finite {
					t.Fatalf("α=%v %v: %v on finite exponents %v", alpha, flows, err, hi)
				}
				continue
			}
			for b, p := range prices {
				if math.IsNaN(p) || math.IsInf(p, 0) || p < costs[b] {
					t.Fatalf("α=%v %v: price[%d] = %v, cost %v", alpha, flows, b, p, costs[b])
				}
			}
			w, err := m.equalMarkup(hi, lo)
			if err != nil {
				t.Fatal(err)
			}
			lnS, _ := stats.LogSumExp(hi)
			s0 := 1 / (1 + w)
			implied := 1 / (1 + math.Exp(lnS-1-w))
			tol := refBounds["logit s0"] * refU * (2 + math.Abs(lnS) + w)
			if tol < 0.01 && math.Abs(s0-implied) > tol*math.Max(s0, implied) {
				t.Fatalf("α=%v %v: s0 = %v, 1/(1 + S·e^{−αm}) = %v (ln S = %v, w = %v)", alpha, flows, s0, implied, lnS, w)
			}
		}
	})
}

// BenchmarkLogitMaxProfit20k: π_max of a 20 000-flow fitted market, the
// size of a tier table's re-price.
func BenchmarkLogitMaxProfit20k(b *testing.B) {
	m := Logit{Alpha: 1.1, S0: 0.2}
	flows, ok := drawMarket(20, m, 20000, 20)
	if !ok {
		b.Fatal("drawMarket failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi, err := m.MaxProfit(flows)
		if err != nil {
			b.Fatal(err)
		}
		maxProfitSink = pi
	}
}

var maxProfitSink float64
