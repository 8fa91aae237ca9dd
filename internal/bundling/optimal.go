package bundling

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/optimize"
	"tieredpricing/internal/pricing"
)

// Optimal is the paper's optimal bundling strategy: the partition of flows
// into at most b bundles that maximizes total ISP profit. The paper frames
// this as an exhaustive search ("more than a billion ways to divide one
// hundred traffic flows into six pricing bundles"); here it is computed
// exactly in O(n²·b) by a dynamic program, exploiting structure both
// demand models share:
//
//   - CED: a bundle priced by Eq. 5 earns k(α)·(Σv^α)·C^{1−α}, with C the
//     v^α-weighted mean cost, so total profit is a sum of per-bundle terms
//     of the form weight·g(weighted mean cost) with g(C) = C^{1−α} convex.
//   - Logit: at the equal-markup optimum (Eq. 9), total profit is a
//     strictly increasing function of A = Σ_b (Σ_i e^{αv_i})·e^{−α·C_b},
//     again weight·g(weighted mean) per bundle with g(C) = e^{−αC} convex.
//
// For such objectives an optimal partition is contiguous in cost order
// (cross-checked against exhaustive set-partition enumeration in the
// optimize package tests), which the DP searches exactly. Both block-value
// families further satisfy the concave-Monge condition, so the default
// solver is the O(n·b) SMAWK monotone DP (optimize.ContiguousDPMonotone);
// set Quadratic to force the O(n²·b) reference DP instead.
type Optimal struct {
	// Quadratic opts into the O(n²·b) reference DP instead of the SMAWK
	// monotone solver. The two return identical
	// partitions on the supported objectives (property-tested); the knob
	// exists for cross-checking and for debugging suspected
	// monotonicity violations.
	Quadratic bool
}

// Name implements Strategy.
func (Optimal) Name() string { return "optimal" }

// Bundle implements Strategy.
func (o Optimal) Bundle(flows []econ.Flow, model econ.Model, b int) ([][]int, error) {
	partition, _, _, err := o.BundleInOrder(flows, model, b, nil)
	return partition, err
}

// BundleInOrder is Bundle for a caller that keeps the flows' cost order
// from one market to the next: it runs over CostOrder(flows, hint) and
// returns that order, and whether the hint failed its check and was
// sorted, beside the partition. On an error order is hint.
func (o Optimal) BundleInOrder(flows []econ.Flow, model econ.Model, b int, hint []int) (partition [][]int, order []int, sorted bool, err error) {
	if err := validateInput(flows, b); err != nil {
		return nil, hint, false, err
	}
	w, term, err := objective(flows, model)
	if err != nil {
		return nil, hint, false, err
	}
	order, sorted = CostOrder(flows, hint)
	val := term.prefixView(prefixSums(flows, order, w))
	solve := optimize.ContiguousDPMonotone
	if o.Quadratic {
		solve = optimize.ContiguousDP
	}
	blocks, _, err := solve(len(flows), b, val)
	if err != nil {
		return nil, order, sorted, err
	}
	return optimize.BlocksToPartition(blocks, order), order, sorted, nil
}

// curve is Curve for the SMAWK solver: one cost order, one objective, one
// prefix sum and one DP for every b ≤ maxB.
func (Optimal) curve(flows []econ.Flow, model econ.Model, maxB int) ([][][]int, error) {
	w, term, err := objective(flows, model)
	if err != nil {
		return nil, err
	}
	order, _ := CostOrder(flows, nil)
	s := optimize.GetDPScratch()
	defer optimize.PutDPScratch(s)
	curve, _, err := s.SolveCurve(len(flows), maxB, term.prefixView(prefixSums(flows, order, w)))
	if err != nil {
		return nil, err
	}
	out := make([][][]int, maxB)
	for b, blocks := range curve {
		out[b] = optimize.BlocksToPartition(blocks, order)
	}
	return out, nil
}

// Exhaustive is the paper's literal exhaustive search (§4.2.1) over every
// set partition into at most b bundles, contiguous in cost or not. It
// screens them with the subset-sum view of Optimal's objective and
// re-prices only the shortlist the screen cannot tell from its best,
// keeping the highest real profit (the earliest in EnumeratePartitions
// order on exact ties). CED's screen is the profit and logit's is strictly
// monotone in it, so this is the partition pricing every one would keep.
// It checks Optimal, refuses more than 20 flows, and is not in All.
type Exhaustive struct{}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

// Bundle implements Strategy.
func (Exhaustive) Bundle(flows []econ.Flow, model econ.Model, b int) ([][]int, error) {
	if err := validateInput(flows, b); err != nil {
		return nil, err
	}
	w, term, err := objective(flows, model)
	if err != nil {
		return nil, err
	}
	cw := make([]float64, len(w))
	for i, f := range flows {
		cw[i] = f.Cost * w[i]
	}
	shortlist, _, err := optimize.SearchPartitions(w, cw, b, term.g)
	if err != nil {
		return nil, err
	}
	var best [][]int
	bestProfit := math.Inf(-1)
	for _, partition := range shortlist {
		ev, err := pricing.Evaluate(model, flows, partition)
		if err != nil {
			return nil, err
		}
		if ev.Profit > bestProfit {
			best, bestProfit = partition, ev.Profit
		}
	}
	if best == nil {
		return nil, errors.New("bundling: exhaustive search found no partition with a finite profit")
	}
	return best, nil
}

// CostOrder returns the flow indices sorted by CostCompare, the order
// Optimal's DP runs over. hint, when it holds len(flows) indices, is a
// candidate for that order, kept if one pass finds every adjacent pair
// strictly increasing: n indices in range that pass are a permutation,
// and the only permutation that passes is the sorted one, ties and all.
// Any other hint is sorted afresh, into hint's storage when it has the
// room; sorted reports that.
func CostOrder(flows []econ.Flow, hint []int) (order []int, sorted bool) {
	n := len(flows)
	ok := len(hint) == n
	for k := 0; ok && k < n; k++ {
		ok = uint(hint[k]) < uint(n) && (k == 0 || CostCompare(flows, hint[k-1], hint[k]) < 0)
	}
	if ok {
		return hint, false
	}
	order = slices.Grow(hint[:0], n)[:n]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return CostCompare(flows, a, b) })
	return order, true
}

// CostCompare orders flows a and b by ascending cost, equal costs by
// ascending index: a total order, so its sort is unique.
func CostCompare(flows []econ.Flow, a, b int) int {
	if c := cmp.Compare(flows[a].Cost, flows[b].Cost); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// blockTerm is one demand model's bundling objective, defined once —
// per-flow weights w_i (cw_i = c_i·w_i) and a block term g(Σw, Σcw) — and
// read two ways: through prefix sums by the DP, through subset sums by
// Exhaustive. prefixView is a method of each concrete term so the DP's
// 306 k calls of g per 20 k-flow re-price stay direct.
type blockTerm interface {
	g(sumW, sumCW float64) float64
	prefixView(prefW, prefCW []float64) optimize.BlockValue
}

// objective returns the model's per-flow weights and block term.
func objective(flows []econ.Flow, model econ.Model) ([]float64, blockTerm, error) {
	w := make([]float64, len(flows))
	switch m := model.(type) {
	case econ.CED:
		m.VAlphas(w, flows)
		// k(α) = (α/(α−1))^{−α} / (α−1): profit of a bundle at the Eq. 5
		// price P = α·C/(α−1) is V·P^{−α}(P−C) = V·C^{1−α}·k(α).
		// A zero-cost block makes C^{1−α} → +Inf for α > 1, and one +Inf
		// block poisons every DP total it participates in (Inf−Inf → NaN
		// during comparisons of candidate splits). Cap block values so a
		// zero-cost block is maximally attractive but sums of n+1 of them
		// stay finite and ordered.
		return w, cedTerm{fixedPowFor(1 - m.Alpha), math.Pow(m.Alpha/(m.Alpha-1), -m.Alpha) / (m.Alpha - 1),
			math.MaxFloat64 / float64(len(flows)+1)}, nil
	case econ.Logit:
		// Valuations are shifted by their maximum before exponentiation;
		// the shift rescales every block's W by the same positive factor
		// and leaves C unchanged, so the argmax — and hence the selected
		// partition — is unaffected while the sums stay finite.
		vmax := math.Inf(-1)
		for _, f := range flows {
			if f.Valuation > vmax {
				vmax = f.Valuation
			}
		}
		for i, f := range flows {
			w[i] = math.Exp(m.Alpha * (f.Valuation - vmax))
		}
		return w, logitTerm{m.Alpha}, nil
	}
	return nil, nil, fmt.Errorf("bundling: no block objective for model %q", model.Name())
}

// prefixSums accumulates Σw and Σc·w over the cost-sorted order.
func prefixSums(flows []econ.Flow, order []int, w []float64) (prefW, prefCW []float64) {
	prefW = make([]float64, len(order)+1)
	prefCW = make([]float64, len(order)+1)
	for k, i := range order {
		prefW[k+1] = prefW[k] + w[i]
		prefCW[k+1] = prefCW[k] + flows[i].Cost*w[i]
	}
	return prefW, prefCW
}

// cedTerm is the CED block term over weights v_i^α: a block's
// optimal-price profit is k(α)·V·C^{1−α} with V = Σv^α and C = Σc·v^α / V.
// The constant k(α) is shared by all blocks and only scales the objective
// by a positive factor, but is included so the total equals real profit.
type cedTerm struct {
	pow    *fixedPow // C ↦ C^{1−α}
	k, max float64
}

func (t cedTerm) g(v, cv float64) float64 {
	c := cv / v
	val := t.k * v * t.pow.pow(c)
	if val > t.max || math.IsNaN(val) {
		return t.max
	}
	return val
}

func (t cedTerm) prefixView(prefV, prefCV []float64) optimize.BlockValue {
	return func(lo, hi int) float64 { return t.g(prefV[hi]-prefV[lo], prefCV[hi]-prefCV[lo]) }
}

// logitTerm is the logit block attractiveness W·e^{−α·C} over weights
// e^{α(v_i − vmax)}, with W their sum and C = Σ c_i·e^{α(v_i−vmax)}/W.
type logitTerm struct{ alpha float64 }

func (t logitTerm) g(w, cw float64) float64 {
	if w <= 0 {
		// Every member underflowed e^{α(v−vmax)}; such a block
		// attracts essentially no demand.
		return 0
	}
	c := cw / w
	return w * math.Exp(-t.alpha*c)
}

func (t logitTerm) prefixView(prefW, prefCW []float64) optimize.BlockValue {
	return func(lo, hi int) float64 { return t.g(prefW[hi]-prefW[lo], prefCW[hi]-prefCW[lo]) }
}
