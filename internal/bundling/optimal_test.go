package bundling

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/optimize"
)

// TestOptimalMatchesExhaustiveSearch is the end-to-end validation of the
// DP-based optimal strategy: on small flow sets, enumerate EVERY set
// partition, price each with the real model, and confirm the DP's
// partition earns the maximum profit. This exercises the full chain the
// paper calls "exhaustive search" — for the CED closed form and for the
// logit equal-markup fixed point via its profit-monotone surrogate.
func TestOptimalMatchesExhaustiveSearch(t *testing.T) {
	models := []econ.Model{
		econ.CED{Alpha: 1.3},
		econ.CED{Alpha: 3.0},
		econ.Logit{Alpha: 0.8, S0: 0.2},
		econ.Logit{Alpha: 1.5, S0: 0.35},
	}
	for _, m := range models {
		for seed := int64(0); seed < 6; seed++ {
			flows := fitFlows(t, m, 7, seed, 20)
			for _, b := range []int{2, 3} {
				bestExact := math.Inf(-1)
				err := optimize.EnumeratePartitions(len(flows), b, func(p [][]int) bool {
					prices, err := m.PriceBundles(flows, p)
					if err != nil {
						t.Fatal(err)
					}
					pi, err := m.Profit(flows, p, prices)
					if err != nil {
						t.Fatal(err)
					}
					if pi > bestExact {
						bestExact = pi
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				pOpt, err := Optimal{}.Bundle(flows, m, b)
				if err != nil {
					t.Fatal(err)
				}
				piOpt := profitOf(t, m, flows, pOpt)
				if piOpt < bestExact-1e-6*math.Abs(bestExact) {
					t.Fatalf("%s seed %d b=%d: DP profit %v < exhaustive %v",
						m.Name(), seed, b, piOpt, bestExact)
				}
			}
		}
	}
}

func TestOptimalSingleBundleIsWholeSet(t *testing.T) {
	m := econ.CED{Alpha: 1.1}
	flows := fitFlows(t, m, 10, 2, 20)
	p, err := Optimal{}.Bundle(flows, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || len(p[0]) != 10 {
		t.Fatalf("b=1 optimal = %v, want one full bundle", p)
	}
}

func TestOptimalProfitMonotoneInBundles(t *testing.T) {
	// More allowed bundles can never hurt the optimum.
	for _, m := range []econ.Model{
		econ.CED{Alpha: 1.1},
		econ.Logit{Alpha: 1.1, S0: 0.2},
	} {
		flows := fitFlows(t, m, 25, 13, 20)
		prev := math.Inf(-1)
		for b := 1; b <= 8; b++ {
			p, err := Optimal{}.Bundle(flows, m, b)
			if err != nil {
				t.Fatal(err)
			}
			pi := profitOf(t, m, flows, p)
			if pi < prev-1e-6*math.Abs(prev) {
				t.Fatalf("%s: optimal profit fell from %v (b=%d) to %v (b=%d)",
					m.Name(), prev, b-1, pi, b)
			}
			prev = pi
		}
	}
}

func TestOptimalApproachesMaxProfit(t *testing.T) {
	// With as many bundles as flows, the optimal bundling must achieve
	// the per-flow pricing maximum.
	for _, m := range []econ.Model{
		econ.CED{Alpha: 1.2},
		econ.Logit{Alpha: 1.1, S0: 0.2},
	} {
		flows := fitFlows(t, m, 12, 21, 20)
		p, err := Optimal{}.Bundle(flows, m, len(flows))
		if err != nil {
			t.Fatal(err)
		}
		pi := profitOf(t, m, flows, p)
		max, err := m.MaxProfit(flows)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pi-max) > 1e-6*math.Abs(max) {
			t.Fatalf("%s: optimal with n bundles %v != max %v", m.Name(), pi, max)
		}
	}
}

func TestCEDBlockValueMatchesRealProfit(t *testing.T) {
	// The DP's O(1) block value must equal the profit of pricing that
	// block with Eq. 5.
	m := econ.CED{Alpha: 1.4}
	flows := fitFlows(t, m, 9, 31, 20)
	order, _ := CostOrder(flows, nil)
	val := cedBlockValue(flows, order, m.Alpha)
	for lo := 0; lo < len(flows); lo++ {
		for hi := lo + 1; hi <= len(flows); hi++ {
			block := order[lo:hi]
			price, err := m.BundlePrice(flows, block)
			if err != nil {
				t.Fatal(err)
			}
			var want float64
			for _, i := range block {
				want += econ.CEDFlowProfit(flows[i].Valuation, price, flows[i].Cost, m.Alpha)
			}
			got := val(lo, hi)
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Fatalf("block [%d,%d): value %v != profit %v", lo, hi, got, want)
			}
		}
	}
}

// TestOptimalSolversAgreeOnFittedFlows pins the default monotone solver to
// the quadratic reference on realistic fitted flow sets across both demand
// models: the selected partitions must coincide, not merely their profits.
func TestOptimalSolversAgreeOnFittedFlows(t *testing.T) {
	models := []econ.Model{
		econ.CED{Alpha: 1.3},
		econ.CED{Alpha: 3.0},
		econ.Logit{Alpha: 0.8, S0: 0.2},
		econ.Logit{Alpha: 1.5, S0: 0.35},
	}
	for _, m := range models {
		for seed := int64(0); seed < 4; seed++ {
			flows := fitFlows(t, m, 40, seed, 20)
			for _, b := range []int{1, 2, 4, 7, 40} {
				pMono, err := Optimal{}.Bundle(flows, m, b)
				if err != nil {
					t.Fatal(err)
				}
				pQuad, err := Optimal{Quadratic: true}.Bundle(flows, m, b)
				if err != nil {
					t.Fatal(err)
				}
				piMono := profitOf(t, m, flows, pMono)
				piQuad := profitOf(t, m, flows, pQuad)
				if math.Abs(piMono-piQuad) > 1e-9*(1+math.Abs(piQuad)) {
					t.Fatalf("%s seed %d b=%d: monotone profit %v != quadratic %v",
						m.Name(), seed, b, piMono, piQuad)
				}
				if !partitionsEqual(pMono, pQuad) {
					t.Fatalf("%s seed %d b=%d: monotone partition %v != quadratic %v",
						m.Name(), seed, b, pMono, pQuad)
				}
			}
		}
	}
}

func partitionsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return false
		}
		for i := range a[k] {
			if a[k][i] != b[k][i] {
				return false
			}
		}
	}
	return true
}

// TestOptimalLogitExtremeValuationSpread drives the logit block weights
// into underflow (e^{α(v−vmax)} → 0 for all but the top flows) and checks
// that both solvers still produce valid partitions with equal profit.
func TestOptimalLogitExtremeValuationSpread(t *testing.T) {
	m := econ.Logit{Alpha: 1.5, S0: 0.2}
	n := 20
	flows := make([]econ.Flow, n)
	for i := range flows {
		flows[i] = econ.Flow{
			Valuation: 1 + float64(i)*60, // spread 1 .. 1141: weights underflow below the top
			Cost:      0.5 + float64((i*7)%n)*0.3,
			Demand:    1,
		}
	}
	for _, b := range []int{2, 3, 5} {
		pMono, err := Optimal{}.Bundle(flows, m, b)
		if err != nil {
			t.Fatal(err)
		}
		pQuad, err := Optimal{Quadratic: true}.Bundle(flows, m, b)
		if err != nil {
			t.Fatal(err)
		}
		piMono := profitOf(t, m, flows, pMono)
		piQuad := profitOf(t, m, flows, pQuad)
		if math.IsNaN(piMono) || math.IsInf(piMono, 0) {
			t.Fatalf("b=%d: monotone profit is %v", b, piMono)
		}
		if math.Abs(piMono-piQuad) > 1e-9*(1+math.Abs(piQuad)) {
			t.Fatalf("b=%d: monotone profit %v != quadratic %v", b, piMono, piQuad)
		}
	}
}

// TestCEDBlockValueZeroCost is the regression test for the zero-cost
// guard: with α > 1, a block of zero-cost flows used to evaluate to
// k(α)·V·0^{1−α} = +Inf, and a single infinite block silently poisons the
// DP totals (Inf−Inf → NaN in split comparisons). Flow validation rejects
// cost ≤ 0 at the API boundary, but fitted or streamed inputs reach the
// block value through internal callers, so the value itself must stay
// finite. The zero-cost block must still dominate any positive-cost block.
func TestCEDBlockValueZeroCost(t *testing.T) {
	flows := []econ.Flow{
		{Valuation: 10, Cost: 0, Demand: 1},
		{Valuation: 8, Cost: 0, Demand: 1},
		{Valuation: 9, Cost: 2, Demand: 1},
		{Valuation: 7, Cost: 5, Demand: 1},
	}
	order, _ := CostOrder(flows, nil)
	val := cedBlockValue(flows, order, 1.7)
	for lo := 0; lo < len(flows); lo++ {
		for hi := lo + 1; hi <= len(flows); hi++ {
			v := val(lo, hi)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("block [%d,%d): value %v is not finite", lo, hi, v)
			}
		}
	}
	if zero, pos := val(0, 2), val(2, 4); zero <= pos {
		t.Fatalf("zero-cost block value %v should dominate positive-cost block value %v", zero, pos)
	}
	// The DP over this instance must stay finite and well-formed with both
	// solvers despite the capped blocks.
	for _, quadratic := range []bool{false, true} {
		solve := optimize.ContiguousDPMonotone
		if quadratic {
			solve = optimize.ContiguousDP
		}
		blocks, total, err := solve(len(flows), 3, val)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(total) || math.IsInf(total, 0) {
			t.Fatalf("quadratic=%v: DP total %v is not finite", quadratic, total)
		}
		if len(blocks) == 0 || blocks[0][0] != 0 || blocks[len(blocks)-1][1] != len(flows) {
			t.Fatalf("quadratic=%v: malformed blocks %v", quadratic, blocks)
		}
	}
}

// TestCostOrderBreaksTiesByIndex: cost order is the total order
// (cost, index), so equal-cost flows keep their input order under the
// unstable sort and every caller sees one deterministic permutation.
func TestCostOrderBreaksTiesByIndex(t *testing.T) {
	costs := []float64{3, 1, 3, 2, 1, 3, 2, 1, 3, 3, 1, 2, 3, 1, 2, 3}
	flows := make([]econ.Flow, len(costs))
	for i, c := range costs {
		flows[i].Cost = c
	}
	order, _ := CostOrder(flows, nil)
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		if flows[a].Cost > flows[b].Cost || (flows[a].Cost == flows[b].Cost && a >= b) {
			t.Fatalf("order %v: position %d (flow %d, cost %v) before flow %d (cost %v)",
				order, k-1, a, flows[a].Cost, b, flows[b].Cost)
		}
	}
}

// TestBundleInOrderChecksItsHint: BundleInOrder keeps the sorted order it
// is handed, sorts one that is wrong, and bundles as Bundle does either way.
func TestBundleInOrderChecksItsHint(t *testing.T) {
	m := econ.CED{Alpha: 1.4}
	flows := fitFlows(t, m, 40, 7, 20)
	flows[3].Cost = flows[9].Cost // an exact tie
	want, err := Optimal{}.Bundle(flows, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	sortedOrder, _ := CostOrder(flows, nil)
	swapped := slices.Clone(sortedOrder)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	for _, c := range []struct {
		name       string
		hint       []int
		wantSorted bool
	}{
		{"none", nil, true},
		{"sorted", slices.Clone(sortedOrder), false},
		{"two swapped", swapped, true},
		{"too short", sortedOrder[:39], true},
	} {
		got, order, sorted, err := Optimal{}.BundleInOrder(flows, m, 4, c.hint)
		if err != nil {
			t.Fatal(err)
		}
		if sorted != c.wantSorted || !slices.Equal(order, sortedOrder) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s hint: sorted %v (want %v), order %v, partition %v; want %v, %v",
				c.name, sorted, c.wantSorted, order, got, sortedOrder, want)
		}
	}
}

// TestOptimalSolversAgreeOnTieShapes drives both solvers through the
// flow sets the SMAWK solver is most sensitive to: every cost equal (any
// partition is optimal, candidates differ by rounding alone) and costs
// drawn from three values (long exact-tie runs in cost order). Profits
// must agree at every budget, 1 and 2 — where the last-layer shortcut is
// the first layer — and at and above the flow count included.
func TestOptimalSolversAgreeOnTieShapes(t *testing.T) {
	for _, m := range []econ.Model{
		econ.CED{Alpha: 1.3},
		econ.Logit{Alpha: 1.5, S0: 0.35},
	} {
		for levels := 1; levels <= 3; levels++ {
			flows := fitFlows(t, m, 48, int64(levels), 20)
			for i := range flows {
				flows[i].Cost = []float64{2.5, 0.75, 6}[i*7%levels]
			}
			for _, b := range []int{1, 2, 3, 6, len(flows), len(flows) + 4} {
				pMono, err := Optimal{}.Bundle(flows, m, b)
				if err != nil {
					t.Fatal(err)
				}
				pQuad, err := Optimal{Quadratic: true}.Bundle(flows, m, b)
				if err != nil {
					t.Fatal(err)
				}
				piMono, piQuad := profitOf(t, m, flows, pMono), profitOf(t, m, flows, pQuad)
				if math.Abs(piMono-piQuad) > 1e-9*(1+math.Abs(piQuad)) {
					t.Fatalf("%s levels=%d b=%d: SMAWK profit %v != quadratic %v",
						m.Name(), levels, b, piMono, piQuad)
				}
			}
		}
	}
}

// TestCEDZeroCostRunAtTheCap: a run of zero-cost flows makes every block
// inside it evaluate to the value cap, so whole ranges of splits tie
// exactly (finite block values are absorbed when added to the cap). Both
// solvers must then pick the same — leftmost — splits, not just totals
// that compare equal.
func TestCEDZeroCostRunAtTheCap(t *testing.T) {
	n := 40
	flows := make([]econ.Flow, n)
	for i := range flows {
		flows[i] = econ.Flow{Valuation: 5 + float64(i%7), Demand: 1}
		if i >= 14 {
			flows[i].Cost = 0.5 + float64(i%9)*0.4
		}
	}
	order, _ := CostOrder(flows, nil)
	val := cedBlockValue(flows, order, 1.7)
	for _, b := range []int{1, 2, 3, 6, 14, 15, n, n + 3} {
		want, wantTotal, err := optimize.ContiguousDP(n, b, val)
		if err != nil {
			t.Fatal(err)
		}
		got, gotTotal, err := optimize.ContiguousDPMonotone(n, b, val)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(gotTotal) || math.IsInf(gotTotal, 0) {
			t.Fatalf("b=%d: SMAWK total %v is not finite", b, gotTotal)
		}
		if gotTotal != wantTotal || !slices.Equal(got, want) {
			t.Fatalf("b=%d: SMAWK %v total %v != quadratic %v total %v", b, got, gotTotal, want, wantTotal)
		}
	}
}
