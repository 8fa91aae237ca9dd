// Package pricing evaluates bundlings: given a demand model, a fitted flow
// set and a partition into tiers, it computes the profit-maximizing price
// of each tier and the resulting ISP profit, plus the paper's
// profit-capture metric (§4.2.2).
package pricing

import (
	"math"

	"tieredpricing/internal/econ"
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
