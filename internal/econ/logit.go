package econ

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tieredpricing/internal/stats"
)

// Logit is the discrete-choice demand model of §3.2.2 (after Besanko et
// al.): each of K consumers picks the flow maximizing
// u_ij = α(v_i − p_i) + ε_ij with Gumbel ε, or opts out (the "no traffic"
// good with utility ε_0j). The purchase probabilities are
//
//	s_i(P) = e^{α(v_i−p_i)} / (Σ_j e^{α(v_j−p_j)} + 1)       (Eq. 6)
//	Q_i(P) = K·s_i(P)                                        (Eq. 7)
//
// Demands are NOT separable: every price moves every share, which models
// customers that can redirect traffic to substitute destinations.
type Logit struct {
	// Alpha is the elasticity parameter α ∈ (0, ∞).
	Alpha float64
	// S0 is the no-purchase market share assumed to hold at the observed
	// blended rate; it anchors the valuation fit of §4.1.2. Must lie in
	// (0, 1).
	S0 float64
}

// logitMarkupFloor bounds the no-purchase share away from 0 and 1 in the
// fixed-point solve, and MinGammaFraction floors the clamped cost scale in
// the infeasible corner of the s0 sweep (documented in DESIGN.md §4).
const (
	logitS0Floor        = 1e-12
	minGammaFraction    = 1e-6 // γ floor as a fraction of p0 per unit relative cost
	logitFixedPointIter = 200
)

// Name implements Model.
func (m Logit) Name() string { return "logit" }

func (m Logit) check() error {
	if !(m.Alpha > 0) || math.IsInf(m.Alpha, 1) {
		return fmt.Errorf("econ: logit requires alpha > 0, got %v", m.Alpha)
	}
	if !(m.S0 > 0 && m.S0 < 1) {
		return fmt.Errorf("econ: logit requires s0 in (0,1), got %v", m.S0)
	}
	return nil
}

// logitScratch holds the reusable buffers of the logit hot paths — the
// equal-markup bisection (one softmax per iteration), per-bundle
// aggregation, and profit evaluation — so that repeated pricing calls
// (experiment fan-out, the repricer's ticks) stop churning the allocator.
// The floating-point operation order through these buffers is identical to
// the allocating formulations, so results are bit-for-bit unchanged.
type logitScratch struct {
	exps, w []float64 // utility exponents and softmax weights, n+1 wide
	bv, bc  []float64 // one block's valuations and costs
	fv, fp  []float64 // per-flow valuations and prices
}

// grown returns buf resized to n, reusing capacity when it suffices.
func grown(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

var logitScratchPool = sync.Pool{New: func() any { return new(logitScratch) }}

// Shares evaluates Eq. 6: the per-flow market shares at the given prices,
// plus the no-purchase share s0. vals and prices must have equal length.
func (m Logit) Shares(vals, prices []float64) (shares []float64, s0 float64, err error) {
	if err := m.check(); err != nil {
		return nil, 0, err
	}
	if len(vals) != len(prices) {
		return nil, 0, errors.New("econ: vals/prices length mismatch")
	}
	// Include the outside option as utility exponent 0 and softmax the
	// whole thing for numerical stability.
	exps := make([]float64, len(vals)+1)
	for i := range vals {
		exps[i] = m.Alpha * (vals[i] - prices[i])
	}
	exps[len(vals)] = 0 // e^0 = 1 term in the denominator
	w, err := stats.Softmax(exps)
	if err != nil {
		return nil, 0, err
	}
	return w[:len(vals)], w[len(vals)], nil
}

// MarketSize returns K, inferred from observed demands: at the blended
// rate the flows jointly hold share 1−S0 of the market, so
// K = Σq_i / (1 − S0).
func (m Logit) MarketSize(flows []Flow) float64 {
	return TotalDemand(flows) / (1 - m.S0)
}

// FitValuations implements Model (§4.1.2): with observed shares
// s_i = q_i(1−s0)/Σq_j, inverting Eq. 6 at the blended rate gives
//
//	v_i = (ln s_i − ln s0)/α + p0
func (m Logit) FitValuations(demands []float64, p0 float64) ([]float64, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if !FinitePositive(p0) {
		return nil, fmt.Errorf("econ: blended rate must be finite and positive, got %v", p0)
	}
	var total float64
	for i, q := range demands {
		if !FinitePositive(q) {
			return nil, fmt.Errorf("econ: demand %d is not finite and positive (%v)", i, q)
		}
		total += q
	}
	if total == 0 {
		return nil, errors.New("econ: zero total demand")
	}
	out := make([]float64, len(demands))
	for i, q := range demands {
		si := q * (1 - m.S0) / total
		out[i] = (math.Log(si)-math.Log(m.S0))/m.Alpha + p0
	}
	return out, nil
}

// BundleValuation aggregates the valuations of the flows in a bundle
// (Eq. 10): v_b = ln(Σ e^{α·v_i}) / α.
func (m Logit) BundleValuation(vals []float64) (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	exps := make([]float64, len(vals))
	for i, v := range vals {
		exps[i] = m.Alpha * v
	}
	lse, err := stats.LogSumExp(exps)
	if err != nil {
		return 0, err
	}
	return lse / m.Alpha, nil
}

// BundleCost aggregates the unit costs of the flows in a bundle (Eq. 11):
// the e^{αv}-weighted mean cost, i.e. the expected cost of the flow a
// consumer picks within the bundle when all its flows share a price.
func (m Logit) BundleCost(costs, vals []float64) (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if len(costs) != len(vals) {
		return 0, errors.New("econ: costs/vals length mismatch")
	}
	exps := make([]float64, len(vals))
	for i, v := range vals {
		exps[i] = m.Alpha * v
	}
	w, err := stats.Softmax(exps)
	if err != nil {
		return 0, err
	}
	var c float64
	for i := range costs {
		c += w[i] * costs[i]
	}
	return c, nil
}

// CalibrateScale implements Model (§4.1.3): the single-bundle first-order
// condition (Eq. 9) at the blended rate requires the bundle's average cost
// to be c_b = p0 − 1/(α·s0); with c_i = γ·f_i and the Eq. 11 weighting,
//
//	γ = (p0 − 1/(α·s0)) / Σ_i w_i·f_i,  w_i = e^{αv_i}/Σe^{αv_j}.
//
// When p0 ≤ 1/(α·s0) the implied cost is non-positive (the market's
// markup already exceeds the blended rate); γ is then clamped to a small
// positive floor and clamped is returned true.
func (m Logit) CalibrateScale(valuations, relCosts []float64, p0 float64) (float64, bool, error) {
	if err := m.check(); err != nil {
		return 0, false, err
	}
	if len(valuations) != len(relCosts) {
		return 0, false, errors.New("econ: valuation/cost length mismatch")
	}
	if len(valuations) == 0 {
		return 0, false, errors.New("econ: no flows")
	}
	if !FinitePositive(p0) {
		return 0, false, fmt.Errorf("econ: blended rate must be finite and positive, got %v", p0)
	}
	for i, f := range relCosts {
		if f <= 0 {
			return 0, false, fmt.Errorf("econ: relative cost %d non-positive", i)
		}
	}
	meanF, err := m.BundleCost(relCosts, valuations)
	if err != nil {
		return 0, false, err
	}
	target := p0 - 1/(m.Alpha*m.S0)
	if target <= 0 {
		return minGammaFraction * p0 / meanF, true, nil
	}
	return target / meanF, false, nil
}

// bundleAggregates reduces a partition to per-bundle (valuation, cost)
// pairs via Eqs. 10–11, computing through sc's buffers. vals and costs are
// freshly allocated (callers may retain them); only working state is
// pooled. The computation is operation-for-operation the same as calling
// BundleValuation and BundleCost per block.
func (m Logit) bundleAggregates(flows []Flow, partition [][]int, sc *logitScratch) (vals, costs []float64, err error) {
	vals = make([]float64, len(partition))
	costs = make([]float64, len(partition))
	for b, block := range partition {
		sc.bv = grown(sc.bv, len(block))
		sc.bc = grown(sc.bc, len(block))
		sc.exps = grown(sc.exps, len(block))
		sc.w = grown(sc.w, len(block))
		for j, i := range block {
			sc.bv[j] = flows[i].Valuation
			sc.bc[j] = flows[i].Cost
		}
		// Eq. 10: v_b = ln(Σ e^{α·v_i}) / α.
		for j, v := range sc.bv {
			sc.exps[j] = m.Alpha * v
		}
		lse, err := stats.LogSumExp(sc.exps)
		if err != nil {
			return nil, nil, err
		}
		vals[b] = lse / m.Alpha
		// Eq. 11: the e^{αv}-weighted mean cost.
		if err := stats.SoftmaxInto(sc.w, sc.exps); err != nil {
			return nil, nil, err
		}
		var c float64
		for j := range sc.bc {
			c += sc.w[j] * sc.bc[j]
		}
		costs[b] = c
	}
	return vals, costs, nil
}

// PriceBundles implements Model. The multiproduct-logit first-order
// condition is the equal-markup property (Eq. 9): every bundle's price
// exceeds its Eq. 11 cost by the same markup 1/(α·s0), where s0 is the
// equilibrium no-purchase share. That reduces the n-dimensional price
// optimization the paper solves by gradient descent to a scalar
// root-finding problem in s0, solved here by bisection (the gradient
// solver lives in internal/optimize and is cross-checked in tests).
func (m Logit) PriceBundles(flows []Flow, partition [][]int) ([]float64, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if err := ValidateFlows(flows); err != nil {
		return nil, err
	}
	if err := checkPartition(len(flows), partition); err != nil {
		return nil, err
	}
	sc := logitScratchPool.Get().(*logitScratch)
	defer logitScratchPool.Put(sc)
	vals, costs, err := m.bundleAggregates(flows, partition, sc)
	if err != nil {
		return nil, err
	}

	// implied maps a candidate no-purchase share to the share the
	// resulting equal-markup prices would actually produce. The bisection
	// evaluates it a couple hundred times per call, so the exponent and
	// weight buffers come from the pooled scratch rather than being
	// reallocated per iteration.
	sc.exps = grown(sc.exps, len(vals)+1)
	sc.w = grown(sc.w, len(vals)+1)
	implied := func(s0 float64) float64 {
		markup := 1 / (m.Alpha * s0)
		exps := sc.exps
		for b := range vals {
			exps[b] = m.Alpha * (vals[b] - costs[b] - markup)
		}
		exps[len(vals)] = 0
		_ = stats.SoftmaxInto(sc.w, exps)
		return sc.w[len(vals)]
	}

	lo, hi := logitS0Floor, 1-logitS0Floor
	// g(s0) = implied(s0) − s0 is positive at lo (huge markup kills all
	// demand) and, except in the degenerate no-market corner, negative at
	// hi. Bisect.
	if implied(hi)-hi > 0 {
		// Degenerate: even the minimal markup leaves (almost) nobody
		// buying; the market collapses to the outside option.
		hi = implied(hi)
	}
	s0 := 0.0
	for iter := 0; iter < logitFixedPointIter; iter++ {
		mid := (lo + hi) / 2
		if implied(mid)-mid > 0 {
			lo = mid
		} else {
			hi = mid
		}
		s0 = (lo + hi) / 2
		if hi-lo < 1e-15 {
			break
		}
	}
	markup := 1 / (m.Alpha * s0)
	prices := make([]float64, len(partition))
	for b := range prices {
		prices[b] = costs[b] + markup
	}
	return prices, nil
}

// Profit implements Model: Eq. 8 evaluated per flow, with every flow
// priced at its bundle's price. This is algebraically identical to
// aggregating bundles via Eqs. 10–11 first (verified by tests).
func (m Logit) Profit(flows []Flow, partition [][]int, prices []float64) (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if err := ValidateFlows(flows); err != nil {
		return 0, err
	}
	if err := checkPartition(len(flows), partition); err != nil {
		return 0, err
	}
	if len(prices) != len(partition) {
		return 0, errors.New("econ: one price per bundle required")
	}
	sc := logitScratchPool.Get().(*logitScratch)
	defer logitScratchPool.Put(sc)
	n := len(flows)
	sc.fv = grown(sc.fv, n)
	sc.fp = grown(sc.fp, n)
	for b, block := range partition {
		for _, i := range block {
			sc.fv[i] = flows[i].Valuation
			sc.fp[i] = prices[b]
		}
	}
	// Inline of Shares through the pooled buffers (same operation order):
	// softmax over the utility exponents with the outside option appended.
	sc.exps = grown(sc.exps, n+1)
	sc.w = grown(sc.w, n+1)
	for i := 0; i < n; i++ {
		sc.exps[i] = m.Alpha * (sc.fv[i] - sc.fp[i])
	}
	sc.exps[n] = 0
	if err := stats.SoftmaxInto(sc.w, sc.exps); err != nil {
		return 0, err
	}
	k := m.MarketSize(flows)
	var profit float64
	for i, f := range flows {
		profit += k * sc.w[i] * (sc.fp[i] - f.Cost)
	}
	return profit, nil
}

// MaxProfit implements Model: every flow priced separately via the same
// fixed point.
func (m Logit) MaxProfit(flows []Flow) (float64, error) {
	parts := Singletons(len(flows))
	prices, err := m.PriceBundles(flows, parts)
	if err != nil {
		return 0, err
	}
	return m.Profit(flows, parts, prices)
}

// PotentialProfits implements Model: Eq. 13,
// π_i = K·s_i/(α·s0) ∝ q_i — under logit, a flow's stand-alone profit
// potential at the calibration point is proportional to its observed
// demand (which is why the paper's Figure 9 legend omits the separate
// demand-weighted strategy).
func (m Logit) PotentialProfits(flows []Flow) ([]float64, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if err := ValidateFlows(flows); err != nil {
		return nil, err
	}
	k := m.MarketSize(flows)
	total := TotalDemand(flows)
	out := make([]float64, len(flows))
	for i, f := range flows {
		si := f.Demand * (1 - m.S0) / total
		out[i] = k * si / (m.Alpha * m.S0)
	}
	return out, nil
}

// BlendedProfit returns the profit of charging the single price p0 for
// all flows.
func (m Logit) BlendedProfit(flows []Flow, p0 float64) (float64, error) {
	return m.Profit(flows, OneBundle(len(flows)), []float64{p0})
}

// Surplus returns aggregate consumer surplus at the given prices: the
// standard logit log-sum formula K/α · ln(Σ e^{α(v_i−p_i)} + 1).
func (m Logit) Surplus(flows []Flow, partition [][]int, prices []float64) (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if err := checkPartition(len(flows), partition); err != nil {
		return 0, err
	}
	exps := make([]float64, 0, len(flows)+1)
	for b, block := range partition {
		for _, i := range block {
			exps = append(exps, m.Alpha*(flows[i].Valuation-prices[b]))
		}
	}
	exps = append(exps, 0)
	lse, err := stats.LogSumExp(exps)
	if err != nil {
		return 0, err
	}
	return m.MarketSize(flows) / m.Alpha * lse, nil
}
