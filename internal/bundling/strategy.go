// Package bundling implements the six flow-bundling strategies of §4.2.1
// of the paper — optimal, demand-weighted, cost-weighted, profit-weighted,
// cost division and index division — plus the class-aware variant of the
// profit-weighted heuristic that §4.3.1 introduces for the destination-type
// cost model. A strategy groups an ISP's traffic flows into at most B
// pricing tiers; the pricing package then computes each tier's
// profit-maximizing price.
package bundling

import (
	"errors"
	"fmt"
	"slices"

	"tieredpricing/internal/econ"
)

// Strategy groups flows into at most b non-empty bundles. Implementations
// must return a valid partition: disjoint index sets covering every flow.
// Strategies may consult the demand model (e.g. for potential-profit
// weights); they must not mutate the flows.
type Strategy interface {
	// Name is the strategy's identifier as used in the paper's figures
	// (e.g. "profit-weighted").
	Name() string
	// Bundle partitions flows into at most b bundles.
	Bundle(flows []econ.Flow, model econ.Model, b int) ([][]int, error)
}

// ErrNeedBundles is returned when b < 1.
var ErrNeedBundles = errors.New("bundling: need at least one bundle")

// All returns one instance of every strategy, in the paper's order, with
// the class-aware profit-weighted variant appended.
func All() []Strategy {
	return []Strategy{
		Optimal{}, ProfitWeighted{}, CostWeighted{}, DemandWeighted{},
		CostDivision{}, IndexDivision{},
		ClassAware{Inner: ProfitWeighted{}},
	}
}

// ByName resolves a strategy by its Name() identifier (the CLI and the
// serving daemon both select strategies by flag).
func ByName(name string) (Strategy, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("bundling: unknown strategy %q", name)
}

// Curve partitions flows for every bundle count at once: entry b-1 is what
// s.Bundle(flows, model, b) returns, for b = 1..maxB. Optimal solves one
// DP for the whole curve (optimize.DPScratch.SolveCurve), the
// token-bucket strategies weigh and sort the flows once, then bucket per
// b, and ClassAware splits the classes once and takes each class's inner
// curve; every other strategy bundles per b.
func Curve(s Strategy, flows []econ.Flow, model econ.Model, maxB int) ([][][]int, error) {
	if err := validateInput(flows, maxB); err != nil {
		return nil, err
	}
	bundle := func(b int) ([][]int, error) { return s.Bundle(flows, model, b) }
	switch s := s.(type) {
	case Optimal:
		if !s.Quadratic {
			return s.curve(flows, model, maxB)
		}
	case ClassAware:
		return s.curve(flows, model, maxB)
	case weighting:
		w, err := s.weights(flows, model)
		if err != nil {
			return nil, err
		}
		bucket, err := buckets(w)
		if err != nil {
			return nil, err
		}
		bundle = func(b int) ([][]int, error) { return bucket(b), nil }
	}
	out := make([][][]int, maxB)
	for b := range out {
		var err error
		if out[b], err = bundle(b + 1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// validateInput performs the checks shared by all strategies.
func validateInput(flows []econ.Flow, b int) error {
	if b < 1 {
		return ErrNeedBundles
	}
	return econ.ValidateFlows(flows)
}

// weighting is a token-bucket strategy: its partition for any b is the
// bucket over one weight per flow (demand, 1/cost or potential profit).
type weighting interface {
	Strategy
	weights(flows []econ.Flow, model econ.Model) ([]float64, error)
}

// bundleWeighted is Bundle for a token-bucket strategy.
func bundleWeighted(s weighting, flows []econ.Flow, model econ.Model, b int) ([][]int, error) {
	if err := validateInput(flows, b); err != nil {
		return nil, err
	}
	w, err := s.weights(flows, model)
	if err != nil {
		return nil, err
	}
	return tokenBucket(w, b)
}

// sortIndexesDesc returns flow indices sorted by descending weight,
// breaking ties by index for determinism. That is a total order, so the
// unstable sort yields the one permutation a stable sort would.
func sortIndexesDesc(weights []float64) []int {
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch wa, wb := weights[a], weights[b]; {
		case wa > wb:
			return -1
		case wa < wb:
			return 1
		}
		return a - b
	})
	return idx
}

// buckets prepares the paper's weighting algorithm (§4.2.1,
// "demand-weighted") once for any bundle count: it checks that every
// weight is finite and positive, totals them to T = Σ w_i and orders the
// flows by decreasing weight. bucket then splits T evenly across b
// bundles; flows are visited in that order and assigned to the first
// bundle that is empty or still has budget, with deficits carried into the
// next bundle. High-weight flows get bundles of their own; low-weight
// flows share the tail bundles. The current bundle only moves forward, so
// each bundle is a run of the order: every b's bundles are
// capacity-capped subslices of the one sorted order, which no caller may
// reorder or append to in place.
func buckets(weights []float64) (bucket func(b int) [][]int, err error) {
	var total float64
	for i, w := range weights {
		if !econ.FinitePositive(w) {
			return nil, fmt.Errorf("bundling: weight %d is not finite and positive (%v)", i, w)
		}
		total += w
	}
	order := sortIndexesDesc(weights)
	return func(b int) [][]int {
		b = min(b, len(weights))
		budgets := make([]float64, b)
		for j := range budgets {
			budgets[j] = total / float64(b)
		}
		// Bundle j, the current one, is order[start:k] before flow
		// order[k] is placed; j == len(bundles).
		bundles := make([][]int, 0, b)
		start, j := 0, 0
		next := func(end int) {
			bundles = append(bundles, order[start:end:end])
			start = end
			j++
		}
		for k, i := range order {
			// Advance to the first bundle that is empty or has budget left.
			for j < b-1 && k > start && budgets[j] <= 0 {
				next(k)
			}
			budgets[j] -= weights[i]
			if budgets[j] < 0 && j+1 < b {
				// Carry the deficit into the next bundle.
				budgets[j+1] += budgets[j]
				budgets[j] = 0
				next(k + 1)
			}
		}
		if start < len(order) {
			bundles = append(bundles, order[start:])
		}
		return bundles
	}, nil
}

// tokenBucket is one bucket of the weighting algorithm.
func tokenBucket(weights []float64, b int) ([][]int, error) {
	bucket, err := buckets(weights)
	if err != nil {
		return nil, err
	}
	return bucket(b), nil
}

// dropEmpty removes empty bundles, preserving order.
func dropEmpty(bundles [][]int) [][]int {
	out := bundles[:0]
	for _, b := range bundles {
		if len(b) > 0 {
			out = append(out, b)
		}
	}
	return out
}

// DemandWeighted is the paper's demand-weighted strategy: token-bucket
// grouping with weights equal to observed flow demands q_i. It isolates
// high-demand flows in their own bundles regardless of cost.
type DemandWeighted struct{}

// Name implements Strategy.
func (DemandWeighted) Name() string { return "demand-weighted" }

// Bundle implements Strategy.
func (s DemandWeighted) Bundle(flows []econ.Flow, model econ.Model, b int) ([][]int, error) {
	return bundleWeighted(s, flows, model, b)
}

func (DemandWeighted) weights(flows []econ.Flow, _ econ.Model) ([]float64, error) {
	w := make([]float64, len(flows))
	for i, f := range flows {
		w[i] = f.Demand
	}
	return w, nil
}

// CostWeighted is the paper's cost-weighted strategy: token-bucket
// grouping with weights 1/c_i, which gives cheap (local) flows dedicated
// bundles and lumps expensive long-haul flows together. The paper notes
// that current ISP practice — regional pricing, backplane peering — maps
// closely to this strategy with two or three bundles.
type CostWeighted struct{}

// Name implements Strategy.
func (CostWeighted) Name() string { return "cost-weighted" }

// Bundle implements Strategy.
func (s CostWeighted) Bundle(flows []econ.Flow, model econ.Model, b int) ([][]int, error) {
	return bundleWeighted(s, flows, model, b)
}

func (CostWeighted) weights(flows []econ.Flow, _ econ.Model) ([]float64, error) {
	w := make([]float64, len(flows))
	for i, f := range flows {
		w[i] = 1 / f.Cost
	}
	return w, nil
}

// ProfitWeighted is the paper's profit-weighted strategy: token-bucket
// grouping with weights equal to each flow's potential profit (Eq. 12 for
// CED, Eq. 13 for logit), accounting for demand and cost together. The
// paper finds it almost as good as optimal bundling.
type ProfitWeighted struct{}

// Name implements Strategy.
func (ProfitWeighted) Name() string { return "profit-weighted" }

// Bundle implements Strategy.
func (s ProfitWeighted) Bundle(flows []econ.Flow, model econ.Model, b int) ([][]int, error) {
	return bundleWeighted(s, flows, model, b)
}

func (ProfitWeighted) weights(flows []econ.Flow, model econ.Model) ([]float64, error) {
	return model.PotentialProfits(flows)
}

// CostDivision is the paper's cost-division strategy: the cost axis from
// zero to the most expensive flow is cut into b equal-width ranges and
// each flow lands in the range containing its cost. Ranges containing no
// flows yield no bundle, so fewer than b bundles may be returned.
type CostDivision struct{}

// Name implements Strategy.
func (CostDivision) Name() string { return "cost division" }

// Bundle implements Strategy.
func (CostDivision) Bundle(flows []econ.Flow, _ econ.Model, b int) ([][]int, error) {
	if err := validateInput(flows, b); err != nil {
		return nil, err
	}
	maxC := 0.0
	for _, f := range flows {
		if f.Cost > maxC {
			maxC = f.Cost
		}
	}
	width := maxC / float64(b)
	bundles := make([][]int, b)
	for i, f := range flows {
		k := int(f.Cost / width)
		if k >= b { // the most expensive flow itself
			k = b - 1
		}
		bundles[k] = append(bundles[k], i)
	}
	return dropEmpty(bundles), nil
}

// IndexDivision is the paper's index-division strategy: flows are ranked
// by cost and the rank axis is cut into b equal-count groups, so every
// bundle holds (nearly) the same number of flows regardless of how costs
// are distributed.
type IndexDivision struct{}

// Name implements Strategy.
func (IndexDivision) Name() string { return "index division" }

// Bundle implements Strategy.
func (IndexDivision) Bundle(flows []econ.Flow, _ econ.Model, b int) ([][]int, error) {
	if err := validateInput(flows, b); err != nil {
		return nil, err
	}
	n := len(flows)
	if b > n {
		b = n
	}
	costs := make([]float64, n)
	for i, f := range flows {
		costs[i] = f.Cost
	}
	idx := sortIndexesDesc(costs)
	// Reverse to ascending cost so bundle 0 is the cheapest tier.
	for l, r := 0, n-1; l < r; l, r = l+1, r-1 {
		idx[l], idx[r] = idx[r], idx[l]
	}
	bundles := make([][]int, 0, b)
	for k := 0; k < b; k++ {
		lo := k * n / b
		hi := (k + 1) * n / b
		if hi > lo {
			bundles = append(bundles, append([]int(nil), idx[lo:hi]...))
		}
	}
	return bundles, nil
}
