package econ

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) of the model invariants DESIGN.md
// §7 calls out. Each property draws a random fitted market from the seed.

// drawMarket builds a random fitted flow set with n flows.
func drawMarket(seed int64, m Model, n int, p0 float64) ([]Flow, bool) {
	r := rand.New(rand.NewSource(seed))
	demands := make([]float64, n)
	rel := make([]float64, n)
	for i := range demands {
		demands[i] = 0.1 + math.Exp(r.NormFloat64())
		rel[i] = 0.1 + math.Exp(r.NormFloat64()*0.8)
	}
	vals, err := m.FitValuations(demands, p0)
	if err != nil {
		return nil, false
	}
	gamma, _, err := m.CalibrateScale(vals, rel, p0)
	if err != nil {
		return nil, false
	}
	flows := make([]Flow, n)
	for i := range flows {
		flows[i] = Flow{ID: "f", Demand: demands[i], Distance: rel[i],
			Valuation: vals[i], Cost: gamma * rel[i]}
	}
	return flows, true
}

// randPartition draws a random partition of n items into ≤ b blocks.
func randPartition(r *rand.Rand, n, b int) [][]int {
	assign := make([]int, n)
	used := map[int]bool{}
	for i := range assign {
		assign[i] = r.Intn(b)
		used[assign[i]] = true
	}
	// Re-index to dense non-empty blocks.
	dense := map[int]int{}
	var parts [][]int
	for i, a := range assign {
		k, ok := dense[a]
		if !ok {
			k = len(parts)
			dense[a] = k
			parts = append(parts, nil)
		}
		parts[k] = append(parts[k], i)
	}
	return parts
}

// TestPropertyCEDScaleInvariance: scaling the blended rate P0 scales all
// fitted prices proportionally and leaves normalized profit structure
// unchanged — why Figure 15's sweep is nearly flat.
func TestPropertyCEDScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		m := CED{Alpha: 1.4}
		flows1, ok := drawMarket(seed, m, 12, 10)
		if !ok {
			return false
		}
		flows2, ok := drawMarket(seed, m, 12, 30) // same seed, 3× P0
		if !ok {
			return false
		}
		parts := randPartition(rand.New(rand.NewSource(seed)), 12, 4)
		p1, err := m.PriceBundles(flows1, parts)
		if err != nil {
			return false
		}
		p2, err := m.PriceBundles(flows2, parts)
		if err != nil {
			return false
		}
		for b := range p1 {
			if math.Abs(p2[b]/p1[b]-3) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMergeNeverHelps: merging two optimally priced bundles can
// only lose profit (refinement monotonicity) — the economics behind
// "higher market granularity leads to increased efficiency".
func TestPropertyMergeNeverHelps(t *testing.T) {
	models := []Model{CED{Alpha: 1.2}, Logit{Alpha: 1.1, S0: 0.2}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, m := range models {
			flows, ok := drawMarket(seed, m, 10, 20)
			if !ok {
				return false
			}
			parts := randPartition(r, 10, 5)
			if len(parts) < 2 {
				continue
			}
			before, err := priceAndEvaluate(m, flows, parts)
			if err != nil {
				return false
			}
			// Merge two random blocks.
			i, j := r.Intn(len(parts)), r.Intn(len(parts))
			for j == i {
				j = r.Intn(len(parts))
			}
			merged := make([][]int, 0, len(parts)-1)
			for k, block := range parts {
				switch k {
				case i:
					merged = append(merged, append(append([]int{}, parts[i]...), parts[j]...))
				case j:
				default:
					merged = append(merged, block)
				}
			}
			after, err := priceAndEvaluate(m, flows, merged)
			if err != nil {
				return false
			}
			if after > before+1e-7*math.Abs(before) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPricesExceedBundleCosts: optimal bundle prices always sit
// above the bundle's (weighted mean) cost — the ISP never prices a whole
// tier at a loss.
func TestPropertyPricesExceedBundleCosts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, m := range []Model{CED{Alpha: 1.3}, Logit{Alpha: 0.9, S0: 0.3}} {
			flows, ok := drawMarket(seed, m, 9, 15)
			if !ok {
				return false
			}
			parts := randPartition(r, 9, 4)
			prices, err := m.PriceBundles(flows, parts)
			if err != nil {
				return false
			}
			for b, block := range parts {
				// Weighted mean cost is bounded by the member min/max.
				minC, maxC := math.Inf(1), math.Inf(-1)
				for _, i := range block {
					minC = math.Min(minC, flows[i].Cost)
					maxC = math.Max(maxC, flows[i].Cost)
				}
				if prices[b] <= minC {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCEDBundlePriceWithinMemberRange: the Eq. 5 bundle price
// lies between the cheapest and costliest member's stand-alone optimal
// price.
func TestPropertyCEDBundlePriceWithinMemberRange(t *testing.T) {
	f := func(seed int64) bool {
		m := CED{Alpha: 1.6}
		flows, ok := drawMarket(seed, m, 8, 20)
		if !ok {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		parts := randPartition(r, 8, 3)
		prices, err := m.PriceBundles(flows, parts)
		if err != nil {
			return false
		}
		for b, block := range parts {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range block {
				p := CEDOptimalPrice(flows[i].Cost, m.Alpha)
				lo = math.Min(lo, p)
				hi = math.Max(hi, p)
			}
			if prices[b] < lo-1e-9 || prices[b] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLogitEqualMarkup: every PriceBundles solution carries one
// common markup across bundles (Eq. 9).
func TestPropertyLogitEqualMarkup(t *testing.T) {
	f := func(seed int64) bool {
		m := Logit{Alpha: 1.2, S0: 0.25}
		flows, ok := drawMarket(seed, m, 10, 18)
		if !ok {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		parts := randPartition(r, 10, 4)
		prices, err := m.PriceBundles(flows, parts)
		if err != nil {
			return false
		}
		_, costs := m.bundleAggregates(flows, parts)
		markup := prices[0] - costs[0]
		for b := range prices {
			if math.Abs((prices[b]-costs[b])-markup) > 1e-6*markup {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// priceAndEvaluate prices a partition optimally and returns the profit.
func priceAndEvaluate(m Model, flows []Flow, parts [][]int) (float64, error) {
	prices, err := m.PriceBundles(flows, parts)
	if err != nil {
		return 0, err
	}
	return m.Profit(flows, parts, prices)
}
