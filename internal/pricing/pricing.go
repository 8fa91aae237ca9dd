// Package pricing evaluates bundlings: given a demand model, a fitted flow
// set and a partition into tiers, it computes the profit-maximizing price
// of each tier and the resulting ISP profit, plus the paper's
// profit-capture metric (§4.2.2). It also provides the gradient-ascent
// logit pricer the paper describes, used to cross-check econ's
// closed-form equal markup.
package pricing

import (
	"errors"
	"math"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/optimize"
)

// Evaluation is a priced bundling: the partition, each tier's
// profit-maximizing price, and the resulting total profit.
type Evaluation struct {
	Partition [][]int
	Prices    []float64
	Profit    float64
}

// Evaluate prices each bundle of the partition optimally under the model
// and returns the resulting profit.
func Evaluate(m econ.Model, flows []econ.Flow, partition [][]int) (Evaluation, error) {
	prices, err := m.PriceBundles(flows, partition)
	if err != nil {
		return Evaluation{}, err
	}
	profit, err := m.Profit(flows, partition, prices)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{Partition: partition, Prices: prices, Profit: profit}, nil
}

// Capture is the paper's profit-capture metric (§4.2.2):
//
//	(π_new − π_original) / (π_max − π_original)
//
// the fraction of the profit headroom between the status-quo blended rate
// and infinitely fine-grained pricing that a strategy realizes. When the
// headroom is not positive (all flows cost the same, so bundling cannot
// help) the metric is undefined and NaN is returned.
func Capture(profit, original, max float64) float64 {
	denom := max - original
	if !(denom > 0) {
		return math.NaN()
	}
	return (profit - original) / denom
}

// GradientPrices computes logit bundle prices by projected gradient ascent
// on profit, starting from each bundle's Eq. 11 cost — the heuristic the
// paper describes in §3.2.2 ("starts from a fixed set of prices and
// greedily updates them towards the optimum"). econ.Logit.PriceBundles
// solves the same problem in closed form — the equal markup
// (1 + W(S/e))/α, with W Lambert's — the two agree to high precision (see
// tests), and the closed form is what the rest of the repository uses
// because it is orders of magnitude faster.
func GradientPrices(m econ.Logit, flows []econ.Flow, partition [][]int) ([]float64, error) {
	if len(partition) == 0 {
		return nil, errors.New("pricing: empty partition")
	}
	// Start from marginal-cost pricing of each bundle. One cost/valuation
	// buffer pair sized to the largest bundle serves every iteration of the
	// start-vector loop.
	maxBlock := 0
	for _, block := range partition {
		if len(block) > maxBlock {
			maxBlock = len(block)
		}
	}
	costs := make([]float64, maxBlock)
	vals := make([]float64, maxBlock)
	start := make([]float64, len(partition))
	for b, block := range partition {
		for j, i := range block {
			costs[j] = flows[i].Cost
			vals[j] = flows[i].Valuation
		}
		c, err := m.BundleCost(costs[:len(block)], vals[:len(block)])
		if err != nil {
			return nil, err
		}
		start[b] = c
	}
	objective := func(prices []float64) float64 {
		pi, err := m.Profit(flows, partition, prices)
		if err != nil {
			return math.Inf(-1)
		}
		return pi
	}
	prices, _, err := optimize.GradientAscent(objective, start, optimize.GradientConfig{
		Step:    1.0,
		Tol:     1e-12,
		MaxIter: 20000,
		Lower:   1e-9,
	})
	if err != nil {
		return nil, err
	}
	return prices, nil
}
