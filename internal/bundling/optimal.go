package bundling

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/optimize"
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
	if err := validateInput(flows, b); err != nil {
		return nil, err
	}
	order := costOrder(flows)
	var val optimize.BlockValue
	switch m := model.(type) {
	case econ.CED:
		val = cedBlockValue(flows, order, m.Alpha)
	case econ.Logit:
		val = logitBlockValue(flows, order, m.Alpha)
	default:
		return nil, fmt.Errorf("bundling: optimal strategy does not support model %q", model.Name())
	}
	solve := optimize.ContiguousDPMonotone
	if o.Quadratic {
		solve = optimize.ContiguousDP
	}
	blocks, _, err := solve(len(flows), b, val)
	if err != nil {
		return nil, err
	}
	return optimize.BlocksToPartition(blocks, order), nil
}

// costOrder returns flow indices sorted by ascending cost, equal costs
// by ascending index — a total order, so the unstable sort is
// deterministic.
func costOrder(flows []econ.Flow) []int {
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(flows[a].Cost, flows[b].Cost); c != 0 {
			return c
		}
		return a - b
	})
	return order
}

// cedBlockValue returns an O(1) block profit for the CED model using
// prefix sums over the cost-sorted order: a block's optimal-price profit
// is k(α)·V·C^{1−α} with V = Σv^α and C = Σc·v^α / V. The constant k(α)
// is shared by all blocks and only shifts the DP objective by a positive
// factor, but is included so the DP total equals real profit.
func cedBlockValue(flows []econ.Flow, order []int, alpha float64) optimize.BlockValue {
	n := len(order)
	prefV := make([]float64, n+1)  // Σ v^α
	prefCV := make([]float64, n+1) // Σ c·v^α
	for k, i := range order {
		va := math.Pow(flows[i].Valuation, alpha)
		prefV[k+1] = prefV[k] + va
		prefCV[k+1] = prefCV[k] + flows[i].Cost*va
	}
	// k(α) = (α/(α−1))^{−α} / (α−1): profit of a bundle at the Eq. 5
	// price P = α·C/(α−1) is V·P^{−α}(P−C) = V·C^{1−α}·k(α).
	kAlpha := math.Pow(alpha/(alpha-1), -alpha) / (alpha - 1)
	// A zero-cost block makes C^{1−α} → +Inf for α > 1, and one +Inf block
	// poisons every DP total it participates in (Inf−Inf → NaN during
	// comparisons of candidate splits). Cap block values so a zero-cost
	// block is maximally attractive but sums of n+1 of them stay finite and
	// ordered.
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

// logitBlockValue returns the O(1) block attractiveness
// W·e^{−α·C} with W = Σ e^{α(v_i − vmax)} and C = Σ c_i·e^{α(v_i−vmax)}/W.
// Valuations are shifted by their maximum before exponentiation; the shift
// rescales every block's W by the same positive factor and leaves C
// unchanged, so the DP's argmax — and hence the selected partition — is
// unaffected while the sums stay finite.
func logitBlockValue(flows []econ.Flow, order []int, alpha float64) optimize.BlockValue {
	n := len(order)
	vmax := math.Inf(-1)
	for _, f := range flows {
		if f.Valuation > vmax {
			vmax = f.Valuation
		}
	}
	prefW := make([]float64, n+1)  // Σ e^{α(v−vmax)}
	prefCW := make([]float64, n+1) // Σ c·e^{α(v−vmax)}
	for k, i := range order {
		w := math.Exp(alpha * (flows[i].Valuation - vmax))
		prefW[k+1] = prefW[k] + w
		prefCW[k+1] = prefCW[k] + flows[i].Cost*w
	}
	return func(lo, hi int) float64 {
		w := prefW[hi] - prefW[lo]
		if w <= 0 {
			// Every member underflowed e^{α(v−vmax)}; such a block
			// attracts essentially no demand.
			return 0
		}
		c := (prefCW[hi] - prefCW[lo]) / w
		return w * math.Exp(-alpha*c)
	}
}
