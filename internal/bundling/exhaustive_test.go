package bundling

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/optimize"
	"tieredpricing/internal/pricing"
)

// exhaustiveOracle is the search Exhaustive replaces: every partition
// from optimize.EnumeratePartitions priced by pricing.Evaluate, the first
// strict maximum kept.
func exhaustiveOracle(t *testing.T, m econ.Model, flows []econ.Flow, b int) ([][]int, float64) {
	t.Helper()
	var best [][]int
	bestProfit := math.Inf(-1)
	err := optimize.EnumeratePartitions(len(flows), b, func(p [][]int) bool {
		ev, err := pricing.Evaluate(m, flows, p)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Profit > bestProfit {
			best, bestProfit = p, ev.Profit
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return best, bestProfit
}

// exhaustiveShapes reshape a fitted market into the cases where the
// screen and the real model could part ways.
var exhaustiveShapes = map[string]func(flows []econ.Flow){
	"fitted": func([]econ.Flow) {},
	"equal-cost-runs": func(flows []econ.Flow) {
		for i := range flows {
			flows[i].Cost = flows[i/3*3].Cost
		}
	},
	"identical": func(flows []econ.Flow) {
		for i := range flows {
			flows[i] = flows[0]
		}
	},
	// Logit only: every second weight e^{α(v−vmax)} underflows to zero.
	"underflow": func(flows []econ.Flow) {
		for i := 1; i < len(flows); i += 2 {
			flows[i].Valuation -= 2000
		}
	},
}

// TestExhaustiveMatchesEnumeration: n ∈ 1..9, B ∈ {1, 2, 4, n, n+2}, both
// models including α within 1e-3 of 1 — Exhaustive returns the very
// partition the enumerate-and-price oracle keeps (its first maximum on
// exact ties), so the profit is the same float, not a close one.
func TestExhaustiveMatchesEnumeration(t *testing.T) {
	models := []econ.Model{
		econ.CED{Alpha: 1.1},
		econ.CED{Alpha: 1.001},
		econ.CED{Alpha: 3},
		econ.Logit{Alpha: 1.1, S0: 0.2},
		econ.Logit{Alpha: 1.001, S0: 0.35},
	}
	for shape, reshape := range exhaustiveShapes {
		for _, m := range models {
			if shape == "underflow" && m.Name() != "logit" {
				continue
			}
			for n := 1; n <= 9; n++ {
				if testing.Short() && n > 7 {
					continue
				}
				flows := fitFlows(t, m, n, int64(100+n), 20)
				reshape(flows)
				bs := []int{1, 2, 4, n, n + 2}
				if n > 7 && shape != "fitted" {
					bs = bs[:3] // the oracle prices 21 147 partitions per B ≥ 9
				}
				for _, b := range bs {
					id := fmt.Sprintf("%s/%s α=%v/n=%d/B=%d", shape, m.Name(), m, n, b)
					want, wantProfit := exhaustiveOracle(t, m, flows, b)
					got, err := Exhaustive{}.Bundle(flows, m, b)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
						t.Fatalf("%s: partition %v, oracle %v", id, got, want)
					}
					if pi := profitOf(t, m, flows, got); pi != wantProfit {
						t.Fatalf("%s: profit %v, oracle %v", id, pi, wantProfit)
					}
				}
			}
		}
	}
}

// TestExhaustiveFailsLoudly: whatever the real model rejects, the search
// reports — it never returns the best of the partitions that happened to
// price.
func TestExhaustiveFailsLoudly(t *testing.T) {
	ced := econ.CED{Alpha: 1.2}
	good := fitFlows(t, ced, 6, 1, 20)
	badValuation := slices.Clone(good)
	badValuation[3].Valuation = 0
	for name, c := range map[string]struct {
		flows []econ.Flow
		model econ.Model
		b     int
	}{
		"non-positive valuation": {badValuation, ced, 3},
		"ced alpha = 1":          {good, econ.CED{Alpha: 1}, 3},
		"ced alpha < 1":          {good, econ.CED{Alpha: 0.7}, 3},
		"logit alpha = 0":        {good, econ.Logit{Alpha: 0, S0: 0.2}, 3},
		"unsupported model":      {good, fakeModel{}, 3},
		"more than 20 flows":     {fitFlows(t, ced, 21, 1, 20), ced, 3},
		"zero-cost flow":         {append(slices.Clone(good), econ.Flow{Demand: 1, Valuation: 3}), ced, 3},
	} {
		if p, err := (Exhaustive{}).Bundle(c.flows, c.model, c.b); err == nil {
			t.Errorf("%s: expected an error, got partition %v", name, p)
		}
	}
	if _, err := (Exhaustive{}).Bundle(good, ced, 0); !errors.Is(err, ErrNeedBundles) {
		t.Errorf("b = 0: got %v, want ErrNeedBundles", err)
	}
}

// TestExhaustiveNotSelectable: the search is a check on Optimal, not a
// strategy an operator can pick.
func TestExhaustiveNotSelectable(t *testing.T) {
	if s, err := ByName(Exhaustive{}.Name()); err == nil {
		t.Errorf("ByName resolved %q to %T", Exhaustive{}.Name(), s)
	}
}

// TestSubsetViewZeroCost drives the CED cap path, which flow validation
// keeps from Exhaustive.Bundle itself: with zero-cost flows the screened
// totals stay finite and the shortlist is the enumeration's — the same
// blocks valued from scratch.
func TestSubsetViewZeroCost(t *testing.T) {
	flows := []econ.Flow{
		{Valuation: 10, Cost: 0}, {Valuation: 9, Cost: 2}, {Valuation: 8, Cost: 0},
		{Valuation: 7, Cost: 5}, {Valuation: 6, Cost: 1}, {Valuation: 11, Cost: 3},
	}
	w, term, _ := objective(flows, econ.CED{Alpha: 1.7})
	cw := make([]float64, len(w))
	for i, f := range flows {
		cw[i] = f.Cost * w[i]
	}
	best := math.Inf(-1)
	var want [][][]int
	if err := optimize.EnumeratePartitions(len(flows), 4, func(p [][]int) bool {
		var total float64
		for _, block := range p {
			var sw, scw float64
			for _, i := range block {
				sw, scw = sw+w[i], scw+cw[i]
			}
			total += term.g(sw, scw)
		}
		if math.IsInf(total, 0) || math.IsNaN(total) {
			t.Fatalf("partition %v: total %v is not finite", p, total)
		}
		if total > best {
			best, want = total, nil
		}
		if total == best {
			want = append(want, p)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	got, _, err := optimize.SearchPartitions(w, cw, 4, term.g)
	if err != nil {
		t.Fatal(err)
	}
	// The cap swallows every finite block beside it, so the shortlist is
	// the exact ties at the top: the partitions isolating both zero-cost
	// flows.
	if len(got) != len(want) || len(got) < 2 {
		t.Fatalf("shortlist of %d, want the %d exact ties", len(got), len(want))
	}
	for k, p := range got {
		if !slices.EqualFunc(p, want[k], slices.Equal[[]int]) {
			t.Fatalf("shortlist[%d] = %v, want %v", k, p, want[k])
		}
	}
}

// cedBlockValue and logitBlockValue are the DP's O(1) block values: the
// prefix-sum view of each objective, assembled as Optimal.Bundle does.
func cedBlockValue(flows []econ.Flow, order []int, alpha float64) optimize.BlockValue {
	w, t, _ := objective(flows, econ.CED{Alpha: alpha})
	return t.prefixView(prefixSums(flows, order, w))
}

func logitBlockValue(flows []econ.Flow, order []int, alpha float64) optimize.BlockValue {
	w, t, _ := objective(flows, econ.Logit{Alpha: alpha})
	return t.prefixView(prefixSums(flows, order, w))
}

// parentCEDBlockValue and parentLogitBlockValue are the block values as
// commit 5b4241b computed them, before the objective was factored into
// weights and a block term. The daemon's tier tables are the DP's argmax
// over these: the logit view must reproduce every bit, the CED view —
// whose power is fixedPow's, not math.Pow's — every cut
// (TestCEDKernelKeepsPartitions) and every value to 2·10⁻¹⁵.
func parentCEDBlockValue(flows []econ.Flow, order []int, alpha float64) optimize.BlockValue {
	n := len(order)
	prefV := make([]float64, n+1)
	prefCV := make([]float64, n+1)
	for k, i := range order {
		va := math.Pow(flows[i].Valuation, alpha)
		prefV[k+1] = prefV[k] + va
		prefCV[k+1] = prefCV[k] + flows[i].Cost*va
	}
	kAlpha := math.Pow(alpha/(alpha-1), -alpha) / (alpha - 1)
	maxBlockValue := math.MaxFloat64 / float64(n+1)
	return func(lo, hi int) float64 {
		v := prefV[hi] - prefV[lo]
		cv := prefCV[hi] - prefCV[lo]
		c := cv / v
		val := kAlpha * v * math.Pow(c, 1-alpha)
		if val > maxBlockValue || math.IsNaN(val) {
			return maxBlockValue
		}
		return val
	}
}

func parentLogitBlockValue(flows []econ.Flow, order []int, alpha float64) optimize.BlockValue {
	n := len(order)
	vmax := math.Inf(-1)
	for _, f := range flows {
		if f.Valuation > vmax {
			vmax = f.Valuation
		}
	}
	prefW := make([]float64, n+1)
	prefCW := make([]float64, n+1)
	for k, i := range order {
		w := math.Exp(alpha * (flows[i].Valuation - vmax))
		prefW[k+1] = prefW[k] + w
		prefCW[k+1] = prefCW[k] + flows[i].Cost*w
	}
	return func(lo, hi int) float64 {
		w := prefW[hi] - prefW[lo]
		if w <= 0 {
			return 0
		}
		c := (prefCW[hi] - prefCW[lo]) / w
		return w * math.Exp(-alpha*c)
	}
}

func TestPrefixSumViewBitIdenticalToParent(t *testing.T) {
	const n = 200
	for _, c := range []struct {
		model       econ.Model
		got, parent func([]econ.Flow, []int, float64) optimize.BlockValue
		alpha, tol  float64
	}{
		{econ.CED{Alpha: 1.1}, cedBlockValue, parentCEDBlockValue, 1.1, 2e-15},
		{econ.Logit{Alpha: 1.1, S0: 0.2}, logitBlockValue, parentLogitBlockValue, 1.1, 0},
	} {
		flows := fitFlows(t, c.model, n, 200, 20)
		flows[17].Cost = 0 // the cap path
		flows[60].Valuation -= 2000
		order, _ := CostOrder(flows, nil)
		got, want := c.got(flows, order, c.alpha), c.parent(flows, order, c.alpha)
		capped := 0
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				g, w := got(lo, hi), want(lo, hi)
				atCap := w == math.MaxFloat64/(n+1)
				if atCap {
					capped++
				}
				// A capped block is the cap itself, whatever the tolerance.
				if math.Float64bits(g) != math.Float64bits(w) && (atCap || !(math.Abs(g-w) <= c.tol*w)) {
					t.Fatalf("%s block [%d,%d): %v (%#x), parent %v (%#x)", c.model.Name(), lo, hi,
						g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
		if _, ced := c.model.(econ.CED); ced && capped == 0 {
			t.Fatal("no block of the CED market reached the cap")
		}
	}
}

// BenchmarkExhaustiveSearch is ablation1's unit of work: all 43 947
// partitions of 10 flows into ≤ 4 bundles, screened and re-priced.
func BenchmarkExhaustiveSearch(b *testing.B) {
	for _, m := range []econ.Model{econ.CED{Alpha: 1.1}, econ.Logit{Alpha: 1.1, S0: 0.2}} {
		b.Run(m.Name(), func(b *testing.B) {
			flows := fitFlows(b, m, 10, 1, 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (Exhaustive{}).Bundle(flows, m, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
