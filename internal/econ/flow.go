// Package econ implements the two demand-model families of the paper —
// constant-elasticity demand (CED, §3.2.1) and logit discrete-choice demand
// (§3.2.2) — together with the fitting machinery of §4.1 that maps observed
// traffic demands at a blended rate to per-flow valuations, and the bundle
// pricing formulas (Eqs. 4–13).
//
// Both models implement the Model interface consumed by the pricing and
// core packages, so every bundling counterfactual runs unchanged under
// either demand family.
package econ

import (
	"errors"
	"fmt"
	"math"
)

// Region classifies a flow by how far it travels, following the paper's
// regional cost model (§3.3): flows that originate and terminate in the
// same city are metro, in the same country national, otherwise
// international.
type Region uint8

// Region values, ordered by increasing distance class.
const (
	RegionMetro Region = iota
	RegionNational
	RegionInternational
)

// String returns the lowercase region name.
func (r Region) String() string {
	switch r {
	case RegionMetro:
		return "metro"
	case RegionNational:
		return "national"
	case RegionInternational:
		return "international"
	default:
		return fmt.Sprintf("region(%d)", uint8(r))
	}
}

// Flow is one priced traffic flow: a (source, destination) traffic
// aggregate with its observed demand and the attributes the cost models
// key on. Valuation and Cost are filled in by the fitting stage (§4.1);
// before fitting they are zero.
type Flow struct {
	// ID names the flow (e.g. "fra->lon" or a destination prefix).
	ID string
	// Demand is the observed traffic volume q_i (Mbps) at the blended rate.
	Demand float64
	// Distance is the distance the flow travels in the ISP's network, in
	// miles, computed per the dataset-specific heuristic of §4.1.1.
	Distance float64
	// Region is the destination-region class (metro/national/international).
	Region Region
	// OnNet is true when the destination is a customer of the ISP
	// ("on net"), false for peer/provider destinations ("off net").
	OnNet bool

	// Valuation is the fitted valuation coefficient v_i (§4.1.2).
	Valuation float64
	// Cost is the absolute unit cost c_i = γ·f(d_i) in $/Mbps (§4.1.3).
	Cost float64
}

// Validate reports whether the flow's economic fields are usable by the
// pricing formulas: finite positive demand and cost. Valuation sign is
// model-specific — CED requires v > 0 (checked by its methods), while
// logit valuations are utilities and may legitimately be negative (a
// low-share flow fitted against a low blended rate).
func (f *Flow) Validate() error {
	if !FinitePositive(f.Demand) {
		return fmt.Errorf("econ: flow %q has demand %v, want finite and positive", f.ID, f.Demand)
	}
	if !FinitePositive(f.Cost) {
		return fmt.Errorf("econ: flow %q has cost %v, want finite and positive", f.ID, f.Cost)
	}
	return nil
}

// FinitePositive reports whether x is positive and finite: the guard for
// a demand, cost, rate or duration (`x <= 0` is false for NaN).
func FinitePositive(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// ValidateFlows checks every flow in the slice, in place: every pricing
// call runs it over every flow.
func ValidateFlows(flows []Flow) error {
	if len(flows) == 0 {
		return errors.New("econ: no flows")
	}
	for i := range flows {
		if err := flows[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalDemand returns the sum of observed demands.
func TotalDemand(flows []Flow) float64 {
	var sum float64
	for _, f := range flows {
		sum += f.Demand
	}
	return sum
}

// Model is a demand-model family fitted to a market: it knows how to derive
// per-flow valuations from observed demands (§4.1.2), reconcile relative
// costs with the blended price (§4.1.3), compute profit-maximizing prices
// for any bundling of the flows, and evaluate the resulting ISP profit
// (Eq. 1). Implementations: CED and Logit.
type Model interface {
	// Name identifies the model family ("ced" or "logit").
	Name() string

	// FitValuations maps observed per-flow demands at blended rate p0 to
	// valuation coefficients v_i (§4.1.2).
	FitValuations(demands []float64, p0 float64) ([]float64, error)

	// CalibrateScale returns the cost-scaling coefficient γ that makes the
	// blended rate p0 the profit-maximizing single-bundle price given the
	// fitted valuations and the relative costs f(d_i) (§4.1.3). The
	// returned γ is always positive; infeasible corners (possible in the
	// logit s0 sweep) are clamped and reported via the bool.
	CalibrateScale(valuations, relCosts []float64, p0 float64) (gamma float64, clamped bool, err error)

	// PriceBundles returns the profit-maximizing price of each bundle in
	// the partition. partition is a list of index sets into flows; every
	// flow must appear in exactly one bundle.
	PriceBundles(flows []Flow, partition [][]int) ([]float64, error)

	// Profit evaluates total ISP profit (Eq. 1) when each bundle in the
	// partition is priced at the corresponding entry of prices.
	Profit(flows []Flow, partition [][]int, prices []float64) (float64, error)

	// MaxProfit is the profit attained by pricing every flow separately —
	// the paper's "infinite number of bundles" benchmark.
	MaxProfit(flows []Flow) (float64, error)

	// PotentialProfits returns the per-flow potential-profit weights used
	// by the profit-weighted bundling strategy (Eqs. 12–13).
	PotentialProfits(flows []Flow) ([]float64, error)
}

// ByName builds the demand model the commands and the evaluation select
// by name: "ced" at price sensitivity alpha, or "logit" at alpha with
// no-purchase share s0 (ced ignores s0).
func ByName(name string, alpha, s0 float64) (Model, error) {
	switch name {
	case "ced":
		return CED{Alpha: alpha}, nil
	case "logit":
		return Logit{Alpha: alpha, S0: s0}, nil
	}
	return nil, fmt.Errorf("econ: unknown demand model %q", name)
}

// checkPartition verifies that partition is a disjoint cover of
// 0..n-1 with non-empty blocks.
func checkPartition(n int, partition [][]int) error {
	seen := make([]bool, n)
	count := 0
	for b, block := range partition {
		if len(block) == 0 {
			return fmt.Errorf("econ: bundle %d is empty", b)
		}
		for _, i := range block {
			if i < 0 || i >= n {
				return fmt.Errorf("econ: bundle %d references flow %d out of range", b, i)
			}
			if seen[i] {
				return fmt.Errorf("econ: flow %d assigned to two bundles", i)
			}
			seen[i] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("econ: partition covers %d of %d flows", count, n)
	}
	return nil
}

// Singletons returns the partition that puts every flow in its own bundle.
// The blocks are carved from one backing array, each capped at its own
// element so appending to one cannot spill into the next.
func Singletons(n int) [][]int {
	p := make([][]int, n)
	back := make([]int, n)
	for i := range p {
		back[i] = i
		p[i] = back[i : i+1 : i+1]
	}
	return p
}

// OneBundle returns the partition that puts all n flows in a single bundle.
func OneBundle(n int) [][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return [][]int{all}
}
