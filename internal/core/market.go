// Package core assembles the paper's counterfactual engine (Figure 7):
// starting from observed per-flow traffic demands at a blended rate, it
// (1) fits a demand model's valuation coefficients, (2) maps a cost
// model's relative costs to absolute costs by assuming the ISP is already
// profit-maximizing at the blended rate, and (3) evaluates bundling
// strategies by re-pricing each candidate tiering at its
// profit-maximizing prices and reporting the profit-capture metric.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/pricing"
)

// Market is a fitted transit market: flows with valuations and absolute
// costs consistent with the observed blended rate, plus the profit
// baselines the capture metric needs.
type Market struct {
	// Flows carry fitted Valuation and Cost fields.
	Flows []econ.Flow
	// Demand is the fitted demand model.
	Demand econ.Model
	// Cost is the cost model used to derive relative costs.
	Cost cost.Model
	// P0 is the observed blended rate ($/Mbps/month).
	P0 float64
	// Gamma is the calibrated cost scale γ with c_i = γ·f(d_i).
	Gamma float64
	// GammaClamped reports that calibration hit the infeasible corner
	// (possible only under logit when P0 ≤ 1/(α·s0)) and γ was floored.
	GammaClamped bool
	// OriginalProfit is the status-quo profit: every flow at the blended
	// rate P0. By construction of the calibration it equals the optimal
	// single-bundle profit (up to the clamp above).
	OriginalProfit float64
	// MaxProfit is the per-flow-pricing profit — the "infinite bundles"
	// benchmark π_max.
	MaxProfit float64

	order *costOrder // the Fitter's, which Bundle checks and keeps; nil from NewMarket
}

// Outcome is the result of running one bundling strategy on a market.
type Outcome struct {
	// Strategy is the strategy name.
	Strategy string
	// Bundles is the requested maximum number of bundles B.
	Bundles int
	// Partition and Prices describe the resulting tiers; len(Prices) may
	// be below Bundles when the strategy needs fewer tiers.
	Partition [][]int
	Prices    []float64
	// Profit is the total ISP profit at those prices.
	Profit float64
	// Capture is the profit-capture metric (NaN when the market has no
	// bundling headroom).
	Capture float64
}

// NewMarket fits a market per §4.1: flows must carry positive Demand and
// the attributes the cost model reads (Distance, Region, OnNet). The
// returned market owns a copy of flows with Valuation and Cost populated
// (one Fit of a Fitter with nothing to remember).
func NewMarket(flows []econ.Flow, demand econ.Model, costModel cost.Model, p0 float64) (*Market, error) {
	m, err := new(Fitter).Fit(flows, demand, costModel, p0)
	if err == nil {
		m.order = nil // nothing carries it on, and its Bundles may run concurrently
	}
	return m, err
}

// Fitter fits one market after another over a flow set that mostly
// persists — the online re-pricer's epochs. It reuses its buffers and
// hands a CED model its previous fit (econ.CED.Refit), so a flow whose ID
// and demand did not change is not fitted again, and it carries the cost
// order its last market's Bundle checked into the next (costOrder);
// whatever depends on γ or on a price is computed as NewMarket computes
// it. The zero value is ready, one goroutine at a time; a Market is valid,
// and bundled by one goroutine at a time, until the next Fit.
type Fitter struct {
	owned   []econ.Flow
	demands []float64
	from    []int32    // this fit's flow → the last fit's, or −1
	last    econ.Model // what the last fit's Refit returned
	order   costOrder
}

// Fit is NewMarket with the Fitter's memory.
func (f *Fitter) Fit(flows []econ.Flow, demand econ.Model, costModel cost.Model, p0 float64) (*Market, error) {
	if demand == nil || costModel == nil {
		return nil, errors.New("core: demand and cost models are required")
	}
	if !econ.FinitePositive(p0) {
		return nil, fmt.Errorf("core: blended rate must be finite and positive, got %v", p0)
	}
	if len(flows) == 0 {
		return nil, errors.New("core: no flows")
	}
	// Pair the flows with the last fit's before its copy of them is
	// overwritten.
	prev := f.owned
	f.from = MatchSorted(f.from, len(prev), len(flows), func(i, j int) int { return strings.Compare(prev[i].ID, flows[j].ID) })
	f.order.carry(prev, flows, f.from)
	ced, refits := demand.(econ.CED)
	owned := append(f.owned[:0], flows...)
	f.owned = owned
	demands := slices.Grow(f.demands[:0], len(owned))
	for _, fl := range owned {
		if !econ.FinitePositive(fl.Demand) {
			return nil, fmt.Errorf("core: flow %q has demand %v, want finite and positive", fl.ID, fl.Demand)
		}
		demands = append(demands, fl.Demand)
	}
	f.demands = demands

	rel, err := costModel.RelativeCosts(owned)
	if err != nil {
		return nil, fmt.Errorf("core: cost model: %w", err)
	}
	var vals []float64
	if refits {
		demand, vals, err = ced.Refit(f.last, f.from, demands, p0)
	} else {
		vals, err = demand.FitValuations(demands, p0)
	}
	if err != nil {
		return nil, fmt.Errorf("core: valuation fit: %w", err)
	}
	gamma, clamped, err := demand.CalibrateScale(vals, rel, p0)
	if err != nil {
		return nil, fmt.Errorf("core: cost calibration: %w", err)
	}
	for i := range owned {
		owned[i].Valuation = vals[i]
		owned[i].Cost = gamma * rel[i]
	}
	f.order.merge(owned)

	m := &Market{
		Flows:        owned,
		Demand:       demand,
		Cost:         costModel,
		P0:           p0,
		Gamma:        gamma,
		GammaClamped: clamped,
		order:        &f.order,
	}
	one := econ.OneBundle(len(owned))
	if m.OriginalProfit, err = demand.Profit(owned, one, []float64{p0}); err != nil {
		return nil, fmt.Errorf("core: original profit: %w", err)
	}
	if m.MaxProfit, err = demand.MaxProfit(owned); err != nil {
		return nil, fmt.Errorf("core: max profit: %w", err)
	}
	f.last = demand
	return m, nil
}

// MatchSorted pairs each of nCur keyed elements with the one of nPrev
// earlier elements that has its key, in one forward walk of both lists:
// from[j] is that element's position or −1, and cmp(i, j) orders earlier
// element i's key against element j's (strings.Compare: persisting keys
// share their bytes, which it checks first). Input not sorted by key
// loses pairs and never invents one. from's capacity is reused.
func MatchSorted(from []int32, nPrev, nCur int, cmp func(i, j int) int) []int32 {
	from = slices.Grow(from[:0], nCur)[:nCur]
	i := 0
	for j := range from {
		c := -1
		for ; i < nPrev; i++ {
			if c = cmp(i, j); c >= 0 {
				break
			}
		}
		if from[j] = -1; c == 0 {
			from[j] = int32(i)
			i++
		}
	}
	return from
}

// Run bundles the market's flows with the strategy into at most b tiers,
// prices each tier optimally, and reports profit and capture: Bundle
// followed by Price.
func (m *Market) Run(s bundling.Strategy, b int) (Outcome, error) {
	partition, err := m.Bundle(s, b)
	if err != nil {
		return Outcome{}, err
	}
	return m.Price(s, b, partition)
}

// Curve is Run for every b = 1..maxB from one bundling.Curve: entry b-1 is
// what Run(s, b) returns. It ignores a Fitter's cost order, which changes
// how Run sorts, never what it returns.
func (m *Market) Curve(s bundling.Strategy, maxB int) ([]Outcome, error) {
	partitions, err := bundling.Curve(s, m.Flows, m.Demand, maxB)
	if err != nil {
		return nil, fmt.Errorf("core: %s bundling: %w", s.Name(), err)
	}
	out := make([]Outcome, maxB)
	for b, p := range partitions {
		if out[b], err = m.Price(s, b+1, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Bundle is Run's first half: the strategy's partition of the market's
// flows into at most b tiers. It exists apart from Run so the online
// repricer can time bundling and pricing as separate stages.
func (m *Market) Bundle(s bundling.Strategy, b int) ([][]int, error) {
	var partition [][]int
	var err error
	if in, ok := s.(inOrder); ok && m.order != nil {
		var sorted bool
		partition, m.order.idx, sorted, err = in.BundleInOrder(m.Flows, m.Demand, b, m.order.idx)
		m.order.settle(sorted, err == nil)
	} else {
		partition, err = s.Bundle(m.Flows, m.Demand, b)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s bundling: %w", s.Name(), err)
	}
	return partition, nil
}

// inOrder is a strategy that bundles over a cost order it is handed as a
// hint, checks, and hands back (bundling.Optimal). A strategy that bundles
// subsets of the flows, as ClassAware does, sorts each and does not carry.
type inOrder interface {
	BundleInOrder(flows []econ.Flow, model econ.Model, b int, hint []int) ([][]int, []int, bool, error)
}

// CostOrder reports how the last Bundle by an inOrder strategy came by the
// flows' cost order: "carried" whole from the Fitter's last market,
// "merged" with merged new or moved rows, or "sorted" afresh. It is ""
// before such a Bundle and for a market from NewMarket.
func (m *Market) CostOrder() (outcome string, merged int) {
	if m.order == nil {
		return "", 0
	}
	if m.order.outcome == "merged" {
		merged = len(m.order.extra)
	}
	return m.order.outcome, merged
}

// Price is Run's second half: it prices each tier of the partition s
// produced for budget b optimally and reports profit and capture.
func (m *Market) Price(s bundling.Strategy, b int, partition [][]int) (Outcome, error) {
	ev, err := pricing.Evaluate(m.Demand, m.Flows, partition)
	if err != nil {
		return Outcome{}, fmt.Errorf("core: pricing %s bundling: %w", s.Name(), err)
	}
	return Outcome{
		Strategy:  s.Name(),
		Bundles:   b,
		Partition: ev.Partition,
		Prices:    ev.Prices,
		Profit:    ev.Profit,
		Capture:   m.Capture(ev.Profit),
	}, nil
}

// Capture maps a profit to the market's profit-capture metric.
func (m *Market) Capture(profit float64) float64 {
	return pricing.Capture(profit, m.OriginalProfit, m.MaxProfit)
}

// SplitByDestType implements the paper's destination-type θ (§3.3): every
// flow is split into an on-net part carrying fraction theta of its demand
// and an off-net part carrying the rest, so that "a fraction of traffic at
// each distance is destined to clients". theta must lie in (0, 1); at the
// endpoints the whole market is a single class and splitting is pointless.
func SplitByDestType(flows []econ.Flow, theta float64) ([]econ.Flow, error) {
	if !(theta > 0 && theta < 1) {
		return nil, fmt.Errorf("core: on-net fraction must be in (0,1), got %v", theta)
	}
	out := make([]econ.Flow, 0, 2*len(flows))
	for _, f := range flows {
		on := f
		on.ID = f.ID + "/on"
		on.Demand = f.Demand * theta
		on.OnNet = true
		off := f
		off.ID = f.ID + "/off"
		off.Demand = f.Demand * (1 - theta)
		off.OnNet = false
		out = append(out, on, off)
	}
	return out, nil
}
