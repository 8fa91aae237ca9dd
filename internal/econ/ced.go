package econ

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// CED is the constant-elasticity demand model of §3.2.1, derived from
// alpha-fair utility: flow i's demand at unit price p is
//
//	Q_i(p) = (v_i / p)^α                                    (Eq. 2)
//
// with price sensitivity α ∈ (1, ∞) shared by all flows and per-flow
// valuation coefficients v_i > 0. Demands are separable: each flow's
// quantity depends only on its own price, which models customers with no
// alternative destination for their traffic.
type CED struct {
	// Alpha is the price sensitivity α; must be strictly greater than 1
	// (at α ≤ 1 revenue is unbounded and no profit-maximizing price
	// exists).
	Alpha float64

	// fit, on the model Refit returns, is what that fit computed per flow.
	fit *cedFit
}

// cedFit holds one §4.1.2 fit's per-flow values, each a function of the
// flow's demand q, α and p0 alone: v = p0·q^{1/α}, w = v^α, q0 = (v/p0)^α.
// A formula takes flow i's kept power only when the valuation it has in
// hand is the fitted v[i] bit for bit — the same math.Pow arguments, so
// the same bits; any other flow is computed as if there were no fit.
type cedFit struct {
	alpha, p0   float64
	q, v, w, q0 []float64
	reused      int64        // flows Refit carried over from the previous fit
	pows        atomic.Int64 // math.Pow calls made by Refit and through the model since
}

// holds reports whether flow i was fitted to valuation v under m's α.
func (f *cedFit) holds(m CED, i int, v float64) bool {
	return f != nil && f.alpha == m.Alpha && i < len(f.v) && f.v[i] == v
}

// Name implements Model.
func (m CED) Name() string { return "ced" }

// FitStats reports, for a model Refit returned, the flows that fit carried
// over and the math.Pow calls it and the formulas run through m made.
func (m CED) FitStats() (reused, pows int64) {
	if m.fit == nil {
		return 0, 0
	}
	return m.fit.reused, m.fit.pows.Load()
}

// counted tallies n math.Pow calls — per formula, not per flow:
// experiments price one fitted market from many goroutines.
func (m CED) counted(n int) {
	if m.fit != nil && n > 0 {
		m.fit.pows.Add(int64(n))
	}
}

// vAlpha returns v^α for flow i's valuation v — the weight of Eq. 5,
// Eq. 12 and §4.1.3 — counting in *pows the math.Pow it may take.
func (m CED) vAlpha(i int, v float64, pows *int) float64 {
	if m.fit.holds(m, i, v) {
		return m.fit.w[i]
	}
	*pows++
	return math.Pow(v, m.Alpha)
}

// VAlphas fills dst[i] with flow i's v_i^α (bundling's weights, Eq. 5's).
func (m CED) VAlphas(dst []float64, flows []Flow) {
	pows := 0
	for i := range flows {
		dst[i] = m.vAlpha(i, flows[i].Valuation, &pows)
	}
	m.counted(pows)
}

// check validates the model parameters.
func (m CED) check() error {
	if !(m.Alpha > 1) || math.IsInf(m.Alpha, 1) {
		return fmt.Errorf("econ: CED requires alpha > 1, got %v", m.Alpha)
	}
	return nil
}

// checkFlows validates flows for CED use, which additionally needs
// strictly positive valuations (they enter as v^α).
func (m CED) checkFlows(flows []Flow) error {
	if err := ValidateFlows(flows); err != nil {
		return err
	}
	for _, f := range flows {
		if f.Valuation <= 0 {
			return fmt.Errorf("econ: flow %q has non-positive valuation %v for CED", f.ID, f.Valuation)
		}
	}
	return nil
}

// CEDQuantity evaluates Eq. 2 for a single flow with its own elasticity.
// It is exposed as a free function because the paper's Figure 1
// illustration gives the two flows different demand slopes.
func CEDQuantity(v, p, alpha float64) float64 {
	return math.Pow(v/p, alpha)
}

// CEDOptimalPrice returns the per-flow profit-maximizing price
// p* = α·c/(α−1) (Eq. 4).
func CEDOptimalPrice(c, alpha float64) float64 {
	return alpha * c / (alpha - 1)
}

// CEDFlowProfit returns (v/p)^α · (p − c), one term of Eq. 3.
func CEDFlowProfit(v, p, c, alpha float64) float64 {
	return CEDQuantity(v, p, alpha) * (p - c)
}

// CEDSurplus returns the consumer surplus of one CED flow at price p:
// the area under the demand curve above p,
// ∫_p^∞ (v/u)^α du = v^α · p^{1−α} / (α−1).
func CEDSurplus(v, p, alpha float64) float64 {
	return math.Pow(v, alpha) * math.Pow(p, 1-alpha) / (alpha - 1)
}

// Surplus returns aggregate consumer surplus at the given bundle prices
// under CED: the sum of per-flow surpluses v^α·p^{1−α}/(α−1) (demand is
// separable, so flow surpluses add).
func (m CED) Surplus(flows []Flow, partition [][]int, prices []float64) (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if err := m.checkFlows(flows); err != nil {
		return 0, err
	}
	if err := checkPartition(len(flows), partition); err != nil {
		return 0, err
	}
	if len(prices) != len(partition) {
		return 0, errors.New("econ: one price per bundle required")
	}
	var s float64
	for b, block := range partition {
		for _, i := range block {
			s += CEDSurplus(flows[i].Valuation, prices[b], m.Alpha)
		}
	}
	return s, nil
}

// Quantity evaluates Eq. 2 at the model's α.
func (m CED) Quantity(v, p float64) float64 { return CEDQuantity(v, p, m.Alpha) }

// OptimalPrice evaluates Eq. 4 at the model's α.
func (m CED) OptimalPrice(c float64) float64 { return CEDOptimalPrice(c, m.Alpha) }

// FitValuations implements Model. Inverting Eq. 2 at the blended rate p0,
// the valuation that reproduces observed demand q_i is
//
//	v_i = p0 · q_i^{1/α}                                    (§4.1.2)
func (m CED) FitValuations(demands []float64, p0 float64) ([]float64, error) {
	_, vals, err := m.Refit(nil, nil, demands, p0)
	return vals, err
}

// Refit is FitValuations that keeps what it computes (core.Fitter calls
// it): the model it returns prices exactly as m does and holds each
// flow's valuation and the two powers of it that depend on that flow's
// demand alone, for calibration, MaxProfit, the bundling objective and
// tier pricing to read. When prev is a model Refit returned under the
// same α and p0, flow i takes its values from prev's flow from[i] if
// their demands are equal; a short, nil or wrong from costs only reuse.
func (m CED) Refit(prev Model, from []int32, demands []float64, p0 float64) (Model, []float64, error) {
	if err := m.check(); err != nil {
		return nil, nil, err
	}
	if !FinitePositive(p0) {
		return nil, nil, fmt.Errorf("econ: blended rate must be finite and positive, got %v", p0)
	}
	n := len(demands)
	buf := make([]float64, 4*n)
	f := &cedFit{alpha: m.Alpha, p0: p0, q: buf[:n:n], v: buf[n : 2*n : 2*n], w: buf[2*n : 3*n : 3*n], q0: buf[3*n:]}
	var old *cedFit
	if pm, ok := prev.(CED); ok && pm.fit != nil && pm.fit.alpha == m.Alpha && pm.fit.p0 == p0 {
		old = pm.fit
	}
	reused := 0
	for i, q := range demands {
		if !FinitePositive(q) {
			return nil, nil, fmt.Errorf("econ: demand %d is not finite and positive (%v)", i, q)
		}
		f.q[i] = q
		if old != nil && i < len(from) {
			if k := from[i]; uint(k) < uint(len(old.q)) && old.q[k] == q {
				f.v[i], f.w[i], f.q0[i] = old.v[k], old.w[k], old.q0[k]
				reused++
				continue
			}
		}
		v := p0 * math.Pow(q, 1/m.Alpha)
		f.v[i], f.w[i], f.q0[i] = v, math.Pow(v, m.Alpha), CEDQuantity(v, p0, m.Alpha)
	}
	f.reused = int64(reused)
	f.pows.Store(3 * int64(n-reused))
	return CED{Alpha: m.Alpha, fit: f}, f.v, nil
}

// bundleStats returns Σ v_i^α and the v^α-weighted mean cost of the given
// flow indices — the two sufficient statistics of a CED bundle.
func (m CED) bundleStats(flows []Flow, block []int) (vAlphaSum, meanCost float64) {
	var num float64
	pows := 0
	for _, i := range block {
		va := m.vAlpha(i, flows[i].Valuation, &pows)
		vAlphaSum += va
		num += va * flows[i].Cost
	}
	m.counted(pows)
	return vAlphaSum, num / vAlphaSum
}

// BundlePrice returns the profit-maximizing common price for the flows in
// block (Eq. 5):
//
//	P* = α·Σ c_i v_i^α / ((α−1)·Σ v_i^α)
//
// which reduces to Eq. 4 for a single flow.
func (m CED) BundlePrice(flows []Flow, block []int) (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if len(block) == 0 {
		return 0, errors.New("econ: empty bundle")
	}
	_, meanCost := m.bundleStats(flows, block)
	return CEDOptimalPrice(meanCost, m.Alpha), nil
}

// CalibrateScale implements Model. With relative costs f_i and absolute
// costs c_i = γ·f_i, requiring that the observed blended rate p0 satisfy
// the single-bundle optimum (Eq. 5) pins down
//
//	γ = p0·(α−1)·Σ v_i^α / (α·Σ f_i·v_i^α)                  (§4.1.3)
//
// CED calibration is always feasible for α > 1, so clamped is always
// false.
func (m CED) CalibrateScale(valuations, relCosts []float64, p0 float64) (float64, bool, error) {
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
	var sumVA, sumFVA float64
	pows := 0
	for i, v := range valuations {
		if v <= 0 {
			return 0, false, fmt.Errorf("econ: valuation %d non-positive", i)
		}
		if relCosts[i] <= 0 {
			return 0, false, fmt.Errorf("econ: relative cost %d non-positive", i)
		}
		va := m.vAlpha(i, v, &pows)
		sumVA += va
		sumFVA += relCosts[i] * va
	}
	m.counted(pows)
	gamma := p0 * (m.Alpha - 1) * sumVA / (m.Alpha * sumFVA)
	return gamma, false, nil
}

// PriceBundles implements Model: Eq. 5 applied independently to each block
// (CED demands are separable, so bundles do not interact).
func (m CED) PriceBundles(flows []Flow, partition [][]int) ([]float64, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if err := m.checkFlows(flows); err != nil {
		return nil, err
	}
	if err := checkPartition(len(flows), partition); err != nil {
		return nil, err
	}
	prices := make([]float64, len(partition))
	for b, block := range partition {
		p, err := m.BundlePrice(flows, block)
		if err != nil {
			return nil, err
		}
		prices[b] = p
	}
	return prices, nil
}

// Profit implements Model: Eq. 3 with each flow priced at its bundle's
// price.
func (m CED) Profit(flows []Flow, partition [][]int, prices []float64) (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if err := checkPartition(len(flows), partition); err != nil {
		return 0, err
	}
	if len(prices) != len(partition) {
		return 0, errors.New("econ: one price per bundle required")
	}
	var profit float64
	pows := 0
	for b, block := range partition {
		p := prices[b]
		if p <= 0 {
			return 0, fmt.Errorf("econ: bundle %d has non-positive price %v", b, p)
		}
		profit = m.addProfit(profit, flows, block, p, &pows)
	}
	m.counted(pows)
	return profit, nil
}

// addProfit adds bundle b's terms of Eq. 3 at price p onto sum in block
// order (one running sum: regrouping would move the last bits); (v/p)^α
// is the fit's own when p is the blended rate it was fitted at.
func (m CED) addProfit(sum float64, flows []Flow, block []int, p float64, pows *int) float64 {
	atP0 := m.fit != nil && p == m.fit.p0
	for _, i := range block {
		f := &flows[i]
		if atP0 && m.fit.holds(m, i, f.Valuation) {
			sum += m.fit.q0[i] * (p - f.Cost)
			continue
		}
		sum += CEDFlowProfit(f.Valuation, p, f.Cost, m.Alpha)
		*pows++
	}
	return sum
}

// MaxProfit implements Model: every flow at its Eq. 4 price —
// PriceBundles then Profit over the singleton partition, never built
// (a price is positive or NaN here: checkFlows saw positive costs).
func (m CED) MaxProfit(flows []Flow) (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if err := m.checkFlows(flows); err != nil {
		return 0, err
	}
	var profit float64
	pows, one := 0, []int{0}
	for i := range flows {
		one[0] = i
		_, meanCost := m.bundleStats(flows, one)
		profit = m.addProfit(profit, flows, one, CEDOptimalPrice(meanCost, m.Alpha), &pows)
	}
	m.counted(pows)
	return profit, nil
}

// PotentialProfits implements Model: Eq. 12,
//
//	π_i = v_i^α/α · (α·c_i/(α−1))^{1−α}
//
// which equals the flow's stand-alone maximum profit.
func (m CED) PotentialProfits(flows []Flow) ([]float64, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if err := m.checkFlows(flows); err != nil {
		return nil, err
	}
	out := make([]float64, len(flows))
	m.VAlphas(out, flows)
	for i, f := range flows {
		out[i] = out[i] / m.Alpha * math.Pow(CEDOptimalPrice(f.Cost, m.Alpha), 1-m.Alpha)
	}
	m.counted(len(flows))
	return out, nil
}
