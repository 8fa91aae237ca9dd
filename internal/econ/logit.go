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

// minGammaFraction floors the clamped cost scale in the infeasible corner
// of the s0 sweep (documented in DESIGN.md §4).
const minGammaFraction = 1e-6 // γ floor as a fraction of p0 per unit relative cost

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
// utility exponents of the equal-markup solve and of profit evaluation,
// and profit's per-flow valuations and prices — so that repeated pricing
// calls (experiment fan-out, the repricer's ticks) stop churning the
// allocator.
type logitScratch struct {
	exps, w []float64 // utility exponents and softmax weights
	lo      []float64 // the exponents' rounding errors (equalMarkup)
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
// pairs via Eqs. 10–11 in their stable form, one exponent pass per block:
// with x_i = α·v_i and e_i = e^{x_i − max x},
//
//	v_b = (max x + ln Σe_i)/α,  c_b = Σe_i·c_i / Σe_i.
//
// v_b is bit for bit BundleValuation's; c_b is BundleCost's up to its
// rounding. vals and costs are freshly allocated (callers may retain
// them).
func (m Logit) bundleAggregates(flows []Flow, partition [][]int) (vals, costs []float64) {
	vals = make([]float64, len(partition))
	costs = make([]float64, len(partition))
	for b, block := range partition {
		max := math.Inf(-1)
		for _, i := range block {
			if x := m.Alpha * flows[i].Valuation; x > max {
				max = x
			}
		}
		var sum, sumC float64
		for _, i := range block {
			e := math.Exp(m.Alpha*flows[i].Valuation - max)
			sum += e
			sumC += e * flows[i].Cost
		}
		vals[b] = (max + math.Log(sum)) / m.Alpha
		costs[b] = sumC / sum
	}
	return vals, costs
}

// lambertW returns w = W(x), Lambert's W at x = S/e = e^y: the w ≥ 0 with
// w·e^w = x, or w + ln w = y. Halley steps take it to within rounding in
// three iterations or so (at most five), from the asymptote y − ln y
// above y = 1 and from x below it. They run on f(w) = w·e^w − x, whose
// residual is relative to x, and only where x overflows (passed as +Inf)
// on f(w) = w + ln w − y, whose residual carries y's rounding. Below
// x = 2⁻⁵³, w = x·e^{−w} is x to within rounding — down to its underflow
// to 0, where the market has collapsed.
func lambertW(x, y float64) float64 {
	w := x
	if y > 1 {
		w = y - math.Log(y)
	} else if x < 0x1p-53 {
		return x
	}
	logs := math.IsInf(x, 1)
	for range 8 {
		// Halley: Δ = (f/f')/(1 − f·f''/(2f'²)), written per form so no
		// intermediate overflows.
		var d float64
		if logs {
			t := (w + math.Log(w) - y) / (1 + w)
			d = w * t / (1 + t/(2*(1+w)))
		} else {
			e := math.Exp(w)
			f := w*e - x
			d = f / (e*(w+1) - (w+2)*f/(2*w+2))
		}
		w -= d
		if math.Abs(d) <= 0x1p-50*w {
			break // the error left is ≈ d³: the step was the last one needed
		}
	}
	return w
}

// exponent returns α(v − c) as hi + lo: hi rounded, lo its rounding
// error to first order (the subtraction's by TwoSum, the product's by
// FMA), so e^{α(v−c)} = e^{hi}·(1 + lo) to within rounding. Where v and c
// are large against v − c, the rounding of hi alone moves e^{α(v−c)} by
// many ulps. From |hi| = 2⁵⁰ on, lo may pass 1/4 and 1 + lo stops being
// e^{lo}; lo is 0 there, where ln S dwarfs it.
func (m Logit) exponent(v, c float64) (hi, lo float64) {
	d := v - c
	bb := d - v
	dErr := (v - (d - bb)) + (-c - bb)
	hi = m.Alpha * d
	if !(math.Abs(hi) < 0x1p50) {
		return hi, 0
	}
	return hi, math.FMA(m.Alpha, d, -hi) + m.Alpha*dErr
}

// equalMarkup solves the equal-markup condition (Eq. 9) given the
// exponents x_b = α(v_b − c_b) = hi_b + lo_b of the bundles at cost: with
// S = Σe^{x_b}, the markup m = 1/(α·s0) and the shares
// s0 = 1/(1 + S·e^{−αm}) give (αm − 1)·e^{αm−1} = S/e, so αm = 1 + w with
// w = W(S/e), s0 = 1/(1 + w) and the flows' joint share 1 − s0 = w·s0. It
// returns w. One exponent pass gives ln S = max + ln Σe^{x_b − max} and,
// unless S is huge or tiny, S/e = e^{max−1}·Σe^{x_b − max} without
// rounding ln S − 1.
func (m Logit) equalMarkup(hi, lo []float64) (float64, error) {
	max := math.Inf(-1)
	for _, x := range hi {
		if x > max {
			max = x
		}
	}
	var sum float64
	for b, x := range hi {
		e := math.Exp(x - max)
		sum += e + e*lo[b]
	}
	lnS := max + math.Log(sum)
	if math.IsNaN(lnS) || math.IsInf(lnS, 0) {
		return 0, fmt.Errorf("econ: logit utilities overflow at alpha %v (ln S = %v)", m.Alpha, lnS)
	}
	var x float64
	switch {
	case max > 690:
		x = math.Inf(1) // S/e may overflow: solve in logs
	case max > -700:
		x = math.Exp(max-1) * sum
	default:
		x = math.Exp(lnS - 1) // tiny, and e^{max} would lose bits
	}
	return lambertW(x, lnS-1), nil
}

// PriceBundles implements Model. The multiproduct-logit first-order
// condition is the equal-markup property (Eq. 9): every bundle's price
// exceeds its Eq. 11 cost by the same markup 1/(α·s0), where s0 is the
// equilibrium no-purchase share. That markup has the closed form
// (1 + W(S/e))/α (equalMarkup), so the n-dimensional price optimization
// the paper solves by gradient descent takes one exponent pass (the
// gradient solver lives in internal/optimize and is cross-checked in
// tests). Where S/e underflows the market has collapsed to the outside
// option and every price is c_b + 1/α.
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
	vals, costs := m.bundleAggregates(flows, partition)
	sc := logitScratchPool.Get().(*logitScratch)
	defer logitScratchPool.Put(sc)
	sc.exps, sc.lo = grown(sc.exps, len(vals)), grown(sc.lo, len(vals))
	for b := range vals {
		sc.exps[b], sc.lo[b] = m.exponent(vals[b], costs[b])
	}
	w, err := m.equalMarkup(sc.exps, sc.lo)
	if err != nil {
		return nil, err
	}
	markup := (1 + w) / m.Alpha
	for b := range costs {
		costs[b] += markup
	}
	return costs, nil
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

// MaxProfit implements Model: every flow priced separately, at the
// equal markup (1 + w)/α over its own cost, earns
// K·(1 − s0)·(1 + w)/α = K·w/α with w the equalMarkup of the flows
// themselves — no singleton partition, no aggregates, no profit softmax.
func (m Logit) MaxProfit(flows []Flow) (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if err := ValidateFlows(flows); err != nil {
		return 0, err
	}
	sc := logitScratchPool.Get().(*logitScratch)
	defer logitScratchPool.Put(sc)
	sc.exps, sc.lo = grown(sc.exps, len(flows)), grown(sc.lo, len(flows))
	for i, f := range flows {
		sc.exps[i], sc.lo[i] = m.exponent(f.Valuation, f.Cost)
	}
	w, err := m.equalMarkup(sc.exps, sc.lo)
	if err != nil {
		return 0, err
	}
	return m.MarketSize(flows) * w / m.Alpha, nil
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
