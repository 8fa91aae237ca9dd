package bundling

import (
	"math"
	"sync/atomic"
)

// fixedPow computes x^y for one exponent y, fixed when its tables are
// built: a 20 k-flow re-price raises 306 k per-block mean costs to the
// same 1−α, and math.Pow pays an Exp, a Log and its special cases on each.
// With x = 2^e·m, k the top eight mantissa bits of m and r = m·inv[k] − 1
// (|r| ≤ 2⁻⁹; one rounding, through FMA),
//
//	x^y = (2^e)^y · inv[k]^−y · (1+r)^y = scale[e] · tab[k] · (1 + r·(c₁ + r·(c₂ + …)))
//
// with cⱼ the binomial coefficients of (1+r)^y, cut where the dropped
// term is below 2⁻⁶⁰. The result is within 2·10⁻¹⁵ of math.Pow's
// (TestFixedPowAgainstMathPow) — enough to rank candidate cuts; prices
// and profit stay on math.Pow, in econ. What the tables do not cover is
// math.Pow's: x ≤ 0, NaN, ±Inf, subnormals, x outside 2^±powSpan, and
// every x when y's series or scale does not fit (scale stays nil).
type fixedPow struct {
	y        float64
	coef     []float64 // c_d … c₁, Horner order
	inv, tab [256]float64
	scale    []float64 // (2^e)^y, e = −powSpan … powSpan−1
}

// powSpan is the binary exponents covered either side of 2⁰. Further out
// math.Pow is itself more than 10⁻¹⁵ from x^y at a fractional exponent
// (its Log(x)·y product), so nothing could stay within 2·10⁻¹⁵ of it.
const powSpan = 32

func newFixedPow(y float64) *fixedPow {
	p := &fixedPow{y: y}
	c := 1.0
	for j := 1; ; j++ {
		c *= (y - float64(j-1)) / float64(j)
		if math.Abs(c)*math.Ldexp(1, -9*j) < 0x1p-60 {
			break
		}
		if j == 12 {
			return p // NaN, ±Inf or an exponent too large for a dozen terms
		}
		p.coef = append([]float64{c}, p.coef...)
	}
	for k := range p.inv {
		p.inv[k] = 1 / (1 + (float64(k)+0.5)/256)
		p.tab[k] = math.Pow(p.inv[k], -y)
	}
	scale := make([]float64, 2*powSpan)
	for i := range scale {
		// 2^(e·y) with e·y split exactly into whole and fraction:
		// math.Pow(2^e, y) rounds Log(2^e)·y, 10⁻¹⁵ at the table's ends.
		e := float64(i - powSpan)
		n := math.Round(e * y)
		scale[i] = math.Ldexp(math.Exp2((e*y-n)+math.FMA(e, y, -e*y)), int(n))
		if scale[i] < 0x1p-900 || scale[i] > 0x1p900 {
			return p // x^y would leave the normal range inside the table
		}
	}
	p.scale = scale
	return p
}

func (p *fixedPow) pow(x float64) float64 {
	b := math.Float64bits(x)
	e := b>>52 - (1023 - powSpan) // wraps past the table for 0, subnormals, negatives, Inf, NaN
	if e >= uint64(len(p.scale)) {
		return math.Pow(x, p.y)
	}
	k := b >> 44 & 0xff
	r := math.FMA(math.Float64frombits(b&(1<<52-1)|1023<<52), p.inv[k], -1)
	s := 0.0
	for _, c := range p.coef {
		s = s*r + c
	}
	return p.scale[e] * p.tab[k] * (1 + r*s)
}

// powCache holds the tables of the last few exponents asked for — one α
// per tenant, one at a time per tiersim sweep worker — in a handful of
// slots searched in full and replaced round-robin: it cannot grow, and a
// rebuild is ≈ 400 math.Pow calls.
var powCache [8]atomic.Pointer[fixedPow]
var powNext atomic.Uint32

func fixedPowFor(y float64) *fixedPow {
	for i := range powCache {
		if p := powCache[i].Load(); p != nil && p.y == y {
			return p
		}
	}
	p := newFixedPow(y)
	powCache[powNext.Add(1)%uint32(len(powCache))].Store(p)
	return p
}
