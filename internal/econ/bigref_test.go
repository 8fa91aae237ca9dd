package econ

import (
	"math"
	"math/big"
	"sync"
)

// A 256-bit reference for the closed forms of this package, over
// math/big.Float: exp and log by argument reduction and series, pow from
// those, and Lambert's W by Newton's method on w·e^w = x. Every formula
// below takes the float64 inputs the production code takes as exact
// binary values and carries them at refPrec bits, so what it returns is
// the exact answer to the question the float64 code was asked, to far
// below float64's resolution (2⁻²⁵⁰ against 2⁻⁵³). reference_test.go
// holds the float64 code to it.

const refPrec = 256

// refTol is where a series stops: a term this far below the running sum
// no longer moves its 256 bits. Newton stops at refNewtonTol, 2⁻²⁴⁰:
// its step is a difference of nearly equal 256-bit numbers, so it
// settles into rounding noise a little above refTol.
var (
	refTol       = new(big.Float).SetMantExp(big.NewFloat(1), -refPrec-8)
	refNewtonTol = new(big.Float).SetMantExp(big.NewFloat(1), -refPrec+16)
)

func rf(x float64) *big.Float { return new(big.Float).SetPrec(refPrec).SetFloat64(x) }
func ri(x int64) *big.Float   { return new(big.Float).SetPrec(refPrec).SetInt64(x) }
func rz() *big.Float          { return new(big.Float).SetPrec(refPrec) }

func radd(a, b *big.Float) *big.Float { return rz().Add(a, b) }
func rsub(a, b *big.Float) *big.Float { return rz().Sub(a, b) }
func rmul(a, b *big.Float) *big.Float { return rz().Mul(a, b) }
func rquo(a, b *big.Float) *big.Float { return rz().Quo(a, b) }
func rabs(a *big.Float) *big.Float    { return rz().Abs(a) }

// below reports |a| ≤ refTol·|b|.
func below(a, b *big.Float) bool { return within(a, b, refTol) }

// within reports |a| ≤ tol·|b|.
func within(a, b, tol *big.Float) bool {
	return rabs(a).Cmp(rmul(tol, rabs(b))) <= 0
}

// ratanh sums atanh z = z + z³/3 + z⁵/5 + … for |z| ≤ 1/3.
func ratanh(z *big.Float) *big.Float {
	z2, pow, sum := rmul(z, z), rz().Set(z), rz().Set(z)
	for k := int64(3); ; k += 2 {
		pow = rmul(pow, z2)
		term := rquo(pow, ri(k))
		if below(term, sum) {
			return sum
		}
		sum = radd(sum, term)
	}
}

// refLn2 is ln 2 = 2·atanh(1/3).
var refLn2 = sync.OnceValue(func() *big.Float {
	return rmul(ri(2), ratanh(rquo(ri(1), ri(3))))
})

// refLog returns ln x for x > 0: x = m·2^k with m ∈ [1/√2, √2), then
// ln x = k·ln 2 + 2·atanh((m−1)/(m+1)), |(m−1)/(m+1)| < 0.18.
func refLog(x *big.Float) *big.Float {
	if x.Sign() <= 0 {
		panic("refLog of a non-positive number")
	}
	m := rz()
	k := x.MantExp(m) // m ∈ [0.5, 1)
	if m.Cmp(rf(math.Sqrt2/2)) < 0 {
		m.SetMantExp(m, 1)
		k--
	}
	z := rquo(rsub(m, ri(1)), radd(m, ri(1)))
	return radd(rmul(ri(int64(k)), refLn2()), rmul(ri(2), ratanh(z)))
}

// refExp returns e^x: x = k·ln 2 + r with |r| ≤ ln 2/2, then
// e^x = 2^k·(e^{r/2⁸})^{2⁸} with the Taylor series at r/2⁸.
func refExp(x *big.Float) *big.Float {
	kf, _ := rquo(x, refLn2()).Float64()
	k := math.Round(kf)
	r := rsub(x, rmul(rf(k), refLn2()))
	r.SetMantExp(r, -8)
	sum, term := ri(1), ri(1)
	for n := int64(1); ; n++ {
		term = rquo(rmul(term, r), ri(n))
		if below(term, sum) {
			break
		}
		sum = radd(sum, term)
	}
	for range 8 {
		sum = rmul(sum, sum)
	}
	return sum.SetMantExp(sum, int(k))
}

// refPow returns x^y = e^{y·ln x} for x > 0.
func refPow(x, y *big.Float) *big.Float { return refExp(rmul(y, refLog(x))) }

// refW returns Lambert's W(x) for x ≥ 0, the w ≥ 0 with w·e^w = x, by
// Newton's method w ← w − (w·e^w − x)/(e^w·(1 + w)) from w = ln(1 + x)
// (above the root for x > 0, where the iteration then descends
// monotonically onto it).
func refW(x *big.Float) *big.Float {
	if x.Sign() == 0 {
		return rz()
	}
	w := refLog(radd(ri(1), x))
	for range 400 {
		ew := refExp(w)
		step := rquo(rsub(rmul(w, ew), x), rmul(ew, radd(ri(1), w)))
		w = rsub(w, step)
		if within(step, w, refNewtonTol) {
			return w
		}
	}
	panic("refW did not converge")
}

// refLogitAggregates is Eqs. 10–11 in SNIPPETS 3's stable form, per
// block: with x_i = α·v_i, v_b = (max x + ln Σe^{x_i − max x})/α and
// c_b = Σc_i·e^{x_i − max x}/Σe^{x_i − max x}.
func refLogitAggregates(alpha float64, flows []Flow, partition [][]int) (vb, cb []*big.Float) {
	a := rf(alpha)
	for _, block := range partition {
		var mx *big.Float
		for _, i := range block {
			if x := rmul(a, rf(flows[i].Valuation)); mx == nil || x.Cmp(mx) > 0 {
				mx = x
			}
		}
		sum, sumC := rz(), rz()
		for _, i := range block {
			e := refExp(rsub(rmul(a, rf(flows[i].Valuation)), mx))
			sum = radd(sum, e)
			sumC = radd(sumC, rmul(e, rf(flows[i].Cost)))
		}
		vb = append(vb, rquo(radd(mx, refLog(sum)), a))
		cb = append(cb, rquo(sumC, sum))
	}
	return vb, cb
}

// refLogitW is the equilibrium's w = W(S/e), S = Σ_b e^{α(v_b − c_b)}:
// s0 = 1/(1 + w), every bundle's markup (1 + w)/α.
func refLogitW(alpha float64, vb, cb []*big.Float) *big.Float {
	a, s := rf(alpha), rz()
	for b := range vb {
		s = radd(s, refExp(rmul(a, rsub(vb[b], cb[b]))))
	}
	return refW(rquo(s, refExp(ri(1))))
}

// refLogitPrices returns the equilibrium no-purchase share and prices.
func refLogitPrices(alpha float64, flows []Flow, partition [][]int) (s0 *big.Float, prices []*big.Float) {
	vb, cb := refLogitAggregates(alpha, flows, partition)
	w := refLogitW(alpha, vb, cb)
	markup := rquo(radd(ri(1), w), rf(alpha))
	for _, c := range cb {
		prices = append(prices, radd(c, markup))
	}
	return rquo(ri(1), radd(ri(1), w)), prices
}

// refLogitK is the market size K = Σq/(1 − S0).
func refLogitK(m Logit, flows []Flow) *big.Float {
	q := rz()
	for _, f := range flows {
		q = radd(q, rf(f.Demand))
	}
	return rquo(q, rsub(ri(1), rf(m.S0)))
}

// refLogitMaxProfit is K·W(S/e)/α with S over the flows themselves.
func refLogitMaxProfit(m Logit, flows []Flow) *big.Float {
	vb, cb := make([]*big.Float, len(flows)), make([]*big.Float, len(flows))
	for i, f := range flows {
		vb[i], cb[i] = rf(f.Valuation), rf(f.Cost)
	}
	return rquo(rmul(refLogitK(m, flows), refLogitW(m.Alpha, vb, cb)), rf(m.Alpha))
}

// refLogitProfit is Eq. 8 per flow at the given bundle prices:
// Σ_i K·s_i·(p_b − c_i), s_i = e^{α(v_i − p_b)}/(1 + Σ_j e^{α(v_j − p_b)}),
// and beside it the sum of the magnitudes of its terms,
// Σ_i K·s_i·(|p_b| + |c_i|), the scale its rounding is measured on.
func refLogitProfit(m Logit, flows []Flow, partition [][]int, prices []*big.Float) (profit, scale *big.Float) {
	a := rf(m.Alpha)
	es := make([]*big.Float, len(flows))
	den := ri(1)
	for b, block := range partition {
		for _, i := range block {
			es[i] = refExp(rmul(a, rsub(rf(flows[i].Valuation), prices[b])))
			den = radd(den, es[i])
		}
	}
	k := refLogitK(m, flows)
	profit, scale = rz(), rz()
	for b, block := range partition {
		for _, i := range block {
			ks := rquo(rmul(k, es[i]), den)
			c := rf(flows[i].Cost)
			profit = radd(profit, rmul(ks, rsub(prices[b], c)))
			scale = radd(scale, rmul(ks, radd(rabs(prices[b]), c)))
		}
	}
	return profit, scale
}

// refLogitPotential is Eq. 13 per flow, π_i = K·s_i/(α·s0) with
// s_i = q_i·(1 − s0)/Σq.
func refLogitPotential(m Logit, flows []Flow) []*big.Float {
	total := rz()
	for _, f := range flows {
		total = radd(total, rf(f.Demand))
	}
	k, s0 := refLogitK(m, flows), rf(m.S0)
	den := rmul(rf(m.Alpha), s0)
	out := make([]*big.Float, len(flows))
	for i, f := range flows {
		si := rquo(rmul(rf(f.Demand), rsub(ri(1), s0)), total)
		out[i] = rquo(rmul(k, si), den)
	}
	return out
}

// refLogitSurplus is the log-sum consumer surplus at the given bundle
// prices, K/α·ln(1 + Σ_i e^{α(v_i − p_b)}), and the log-sum alone.
func refLogitSurplus(m Logit, flows []Flow, partition [][]int, prices []float64) (surplus, lse *big.Float) {
	a, sum := rf(m.Alpha), ri(1)
	for b, block := range partition {
		for _, i := range block {
			sum = radd(sum, refExp(rmul(a, rsub(rf(flows[i].Valuation), rf(prices[b])))))
		}
	}
	lse = refLog(sum)
	return rquo(rmul(refLogitK(m, flows), lse), a), lse
}

// refLogitFit is §4.1.2's v_i = (ln s_i − ln s0)/α + p0 with
// s_i = q_i·(1 − s0)/Σq, and its terms' magnitudes.
func refLogitFit(m Logit, demands []float64, p0 float64) (vals, scales []*big.Float) {
	total := rz()
	for _, q := range demands {
		total = radd(total, rf(q))
	}
	a, s0 := rf(m.Alpha), rf(m.S0)
	lnS0 := refLog(s0)
	for _, q := range demands {
		lnSi := refLog(rquo(rmul(rf(q), rsub(ri(1), s0)), total))
		vals = append(vals, radd(rquo(rsub(lnSi, lnS0), a), rf(p0)))
		scales = append(scales, radd(rquo(radd(rabs(lnSi), rabs(lnS0)), a), rf(p0)))
	}
	return vals, scales
}

// refLogitGamma is §4.1.3's γ = (p0 − 1/(α·s0))/Σw_i·f_i with
// w_i ∝ e^{α·v_i}, and the scale (p0 + 1/(α·s0))/Σw_i·f_i its
// cancellation is measured on.
func refLogitGamma(m Logit, vals, rel []float64, p0 float64) (gamma, scale *big.Float) {
	flows := make([]Flow, len(vals))
	for i := range flows {
		flows[i] = Flow{Valuation: vals[i], Cost: rel[i]}
	}
	_, meanF := refLogitAggregates(m.Alpha, flows, OneBundle(len(flows)))
	markup := rquo(ri(1), rmul(rf(m.Alpha), rf(m.S0)))
	return rquo(rsub(rf(p0), markup), meanF[0]), rquo(radd(rf(p0), markup), meanF[0])
}

// refCEDFit is §4.1.2's v_i = p0·q_i^{1/α}.
func refCEDFit(alpha float64, demands []float64, p0 float64) []*big.Float {
	inv := rquo(ri(1), rf(alpha))
	out := make([]*big.Float, len(demands))
	for i, q := range demands {
		out[i] = rmul(rf(p0), refPow(rf(q), inv))
	}
	return out
}

// refCEDPrice is Eq. 4, α·c/(α − 1).
func refCEDPrice(alpha float64, c *big.Float) *big.Float {
	return rquo(rmul(rf(alpha), c), rsub(rf(alpha), ri(1)))
}

// refCEDBundlePrice is Eq. 5, α·Σc_i·v_i^α/((α − 1)·Σv_i^α).
func refCEDBundlePrice(alpha float64, flows []Flow, block []int) *big.Float {
	a, num, den := rf(alpha), rz(), rz()
	for _, i := range block {
		va := refPow(rf(flows[i].Valuation), a)
		num = radd(num, rmul(va, rf(flows[i].Cost)))
		den = radd(den, va)
	}
	return refCEDPrice(alpha, rquo(num, den))
}

// refCEDProfit is Eq. 3, Σ_i (v_i/p_b)^α·(p_b − c_i), and the sum of its
// terms' magnitudes.
func refCEDProfit(alpha float64, flows []Flow, partition [][]int, prices []*big.Float) (profit, scale *big.Float) {
	a := rf(alpha)
	profit, scale = rz(), rz()
	for b, block := range partition {
		for _, i := range block {
			q := refPow(rquo(rf(flows[i].Valuation), prices[b]), a)
			c := rf(flows[i].Cost)
			profit = radd(profit, rmul(q, rsub(prices[b], c)))
			scale = radd(scale, rmul(q, radd(prices[b], c)))
		}
	}
	return profit, scale
}

// refCEDGamma is §4.1.3's γ = p0·(α − 1)·Σv_i^α/(α·Σf_i·v_i^α).
func refCEDGamma(alpha float64, vals, rel []float64, p0 float64) *big.Float {
	a, sumVA, sumFVA := rf(alpha), rz(), rz()
	for i, v := range vals {
		va := refPow(rf(v), a)
		sumVA = radd(sumVA, va)
		sumFVA = radd(sumFVA, rmul(rf(rel[i]), va))
	}
	return rquo(rmul(rmul(rf(p0), rsub(a, ri(1))), sumVA), rmul(a, sumFVA))
}

// refCapture is (π_new − π_orig)/(π_max − π_orig), and its condition
// (|π_new| + |π_orig| + |π_max|)/(π_max − π_orig): the factor by which
// a relative error in the three profits can grow in the quotient.
func refCapture(pNew, pOrig, pMax *big.Float) (capture, cond *big.Float) {
	head := rsub(pMax, pOrig)
	mag := radd(radd(rabs(pNew), rabs(pOrig)), rabs(pMax))
	return rquo(rsub(pNew, pOrig), head), rquo(mag, head)
}
