package econ

import (
	"cmp"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"tieredpricing/internal/stats"
)

// The float64 code of this package against the 256-bit reference of
// bigref_test.go, over a grid of markets of up to 200 flows: α ∈
// {1.001, 1.01, 1.1, 2, 5, 9}, fitted demands over 2^±40, valuation
// spreads past the point where e^{α(v − max v)} underflows, markets whose
// ln S passes 700 (S itself overflows) or falls below −750 (S/e
// underflows), and runs of equal and of (next to) zero costs.

// refU is the unit roundoff 2⁻⁵³: every bound below is a multiple of it.
const refU = 0x1p-53

// refBounds pins each quantity's worst error over the grid, in units of
// refU, on the scale its check names; DESIGN.md §4 quotes this table.
// Each sits about twice above the worst seen over seventeen grid seeds. A
// logit quantity's scale carries the condition κ = 1 + α·max(|v| + c):
// rounding an exponent α·v or α(v − c) moves it by up to κ·refU and
// e^{…} by as much relatively, so no float64 code that forms the exponent
// first can do better.
var refBounds = map[string]float64{
	"logit fit v":      3,  // relative to (|ln s_i| + |ln s0|)/α + p0
	"logit gamma":      1,  // relative to κ·(p0 + 1/(α·s0))/Σw·f
	"logit Eq10 v_b":   2,  // relative to κ·(|max αv| + |ln Σe|)/α
	"logit Eq11 c_b":   1,  // relative to κ·c_b
	"logit s0":         8,  // relative to κ·s0
	"logit price":      1,  // relative to κ·p
	"logit max profit": 1,  // relative to κ·π_max, floored at κ·K·2⁻¹⁰²²/α
	"logit profit":     1,  // relative to κ·Σ K·s_i·(p + c_i), floored likewise
	"logit capture":    8,  // absolute, over the quotient's condition (refCapture)
	"logit potential":  8,  // relative (Eq. 13)
	"logit surplus":    1,  // relative to κ_p·K/α·(1 + ln(1 + Σe)), κ_p = 1 + α·max(|v| + p)
	"ced fit v":        4,  // relative to (1 + |ln q|/α)·v: 1/α's rounding
	"ced Eq4 price":    3,  // relative
	"ced Eq5 price":    24, // relative
	"ced profit":       16, // relative to Σ q·(p + c)
	"ced max profit":   24, // relative
	"ced gamma":        24, // relative
	"ced capture":      16, // absolute, over the quotient's condition
	"math.Pow":         16, // relative, at fixedPow's exponents over its tables
}

// refErrs collects each quantity's worst error in units of refU.
type refErrs map[string]float64

// check records |got − want|/scale in units of refU under name, and
// fails the test when it passes the pinned bound.
func (e refErrs) check(t *testing.T, name, where string, got float64, want, scale *big.Float) {
	t.Helper()
	bound, ok := refBounds[name]
	if !ok {
		t.Fatalf("no bound pinned for %q", name)
	}
	err := math.Inf(1)
	if !math.IsNaN(got) && !math.IsInf(got, 0) {
		err, _ = rquo(rabs(rsub(rf(got), want)), scale).Float64()
		err /= refU
	}
	if err > bound {
		w, _ := want.Float64()
		t.Errorf("%s, %s: got %v, want %v: error %.3g u > bound %g u", name, where, got, w, err, bound)
	}
	e[name] = math.Max(e[name], err)
}

// refDist returns |got − want| in float64 — a distance from the truth,
// for comparing two float64 answers' distances.
func refDist(got float64, want *big.Float) float64 {
	d, _ := rabs(rsub(rf(got), want)).Float64()
	return d
}

// ulpOf is the spacing of float64 at the true value x.
func ulpOf(x *big.Float) float64 {
	f, _ := x.Float64()
	f = math.Abs(f)
	return math.Nextafter(f, math.Inf(1)) - f
}

// bisectionPrices is the equal-markup solve PriceBundles used before its
// closed form, kept as the baseline that closed form must not fall
// behind: up to 200 bisection steps on s0 over the bundles' Eq. 10–11
// aggregates, each a softmax over their exponents at the markup
// 1/(α·s0) and the outside option's 0.
func bisectionPrices(m Logit, vals, costs []float64) (prices []float64, s0 float64) {
	exps, w := make([]float64, len(vals)+1), make([]float64, len(vals)+1)
	implied := func(s0 float64) float64 {
		markup := 1 / (m.Alpha * s0)
		for b := range vals {
			exps[b] = m.Alpha * (vals[b] - costs[b] - markup)
		}
		exps[len(vals)] = 0
		_ = stats.SoftmaxInto(w, exps)
		return w[len(vals)]
	}
	lo, hi := 1e-12, 1-1e-12
	if implied(hi)-hi > 0 {
		hi = implied(hi)
	}
	for range 200 {
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
	prices = make([]float64, len(vals))
	for b := range prices {
		prices[b] = costs[b] + 1/(m.Alpha*s0)
	}
	return prices, s0
}

// refMarket is one grid point: flows fitted (or built) under a model,
// the demands and relative costs they came from when fitted, and the
// blended rate.
type refMarket struct {
	name    string
	flows   []Flow
	demands []float64 // nil when the flows were built, not fitted
	rel     []float64
	p0      float64
}

// refAlphas is the grid's α.
var refAlphas = []float64{1.001, 1.01, 1.1, 2, 5, 9}

// refDemands draws n demands log-uniform over 2^±40 and relative costs
// 0.1 + e^{0.8·N(0,1)}.
func refDemands(r *rand.Rand, n int) (demands, rel []float64) {
	demands, rel = make([]float64, n), make([]float64, n)
	for i := range demands {
		demands[i] = math.Exp2(-40 + 80*r.Float64())
		rel[i] = 0.1 + math.Exp(0.8*r.NormFloat64())
	}
	return demands, rel
}

// costShapes rewrite a fitted market's costs: a run of equal costs, and a
// run of next-to-zero ones (tiny: the smallest cost the model's formulas
// stay finite at — Validate refuses an exact zero).
func costShapes(flows []Flow, tiny float64) []refMarket {
	n := len(flows)
	eq := slices.Clone(flows)
	for i := n / 3; i < 2*n/3; i++ {
		eq[i].Cost = eq[n/3].Cost
	}
	all := slices.Clone(flows)
	for i := range all {
		all[i].Cost = all[0].Cost
	}
	zero := slices.Clone(flows)
	for i := 0; i < n/4+1; i++ {
		zero[i].Cost = tiny
	}
	return []refMarket{{name: "equal-cost run", flows: eq}, {name: "all costs equal", flows: all}, {name: "zero-cost run", flows: zero}}
}

// contiguous splits the flows, in cost order, into b runs of near-equal
// size: the shape every strategy's tiers take.
func contiguous(flows []Flow, b int) [][]int {
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(flows[x].Cost, flows[y].Cost) })
	var parts [][]int
	for k := range b {
		if lo, hi := k*len(order)/b, (k+1)*len(order)/b; hi > lo {
			parts = append(parts, order[lo:hi])
		}
	}
	return parts
}

// logitMarkets builds the logit grid at α.
func logitMarkets(t *testing.T, r *rand.Rand, alpha float64) []refMarket {
	t.Helper()
	m := Logit{Alpha: alpha, S0: 0.2}
	var out []refMarket
	for _, n := range []int{1, 13, 200} {
		demands, rel := refDemands(r, n)
		vals, err := m.FitValuations(demands, 20)
		if err != nil {
			t.Fatal(err)
		}
		gamma, _, err := m.CalibrateScale(vals, rel, 20)
		if err != nil {
			t.Fatal(err)
		}
		flows := make([]Flow, n)
		for i := range flows {
			flows[i] = Flow{Demand: demands[i], Valuation: vals[i], Cost: gamma * rel[i]}
		}
		out = append(out, refMarket{name: "fitted", flows: flows, demands: demands, rel: rel, p0: 20})
		if n == 13 {
			out = append(out, costShapes(flows, 0x1p-1074)...)
		}
	}
	// Built markets: x_i = α(v_i − c_i) placed where S is ordinary, where
	// the valuations spread past e^{α(v − max v)}'s underflow, where S
	// overflows and where S/e underflows (to a subnormal, and to 0).
	build := func(name string, n int, x func() float64) {
		flows := make([]Flow, n)
		for i := range flows {
			c := 1 + 5*r.Float64()
			flows[i] = Flow{Demand: 1 + r.Float64(), Cost: c, Valuation: c + x()/alpha}
		}
		out = append(out, refMarket{name: name, flows: flows, p0: 20})
	}
	build("ln S ≈ 0", 9, func() float64 { return -2.2 + r.Float64() })
	build("spread past underflow", 60, func() float64 { return 3 - 800*r.Float64() })
	build("ln S ≥ 700", 30, func() float64 { return 700 + 100*r.Float64() })
	build("ln S ≈ −720", 12, func() float64 { return -725 - 10*r.Float64() })
	build("ln S ≤ −750", 12, func() float64 { return -760 - 100*r.Float64() })
	return out
}

// TestLogitAgainstReference holds the logit fit, calibration, Eqs. 10–11,
// the closed-form equilibrium (s0, prices, π_max), profit, capture,
// Eq. 13's potential profits and the consumer surplus to the 256-bit
// reference, and gates the closed form on the bisection it
// replaced: at every grid point its s0, prices and π_max are no farther
// from the truth than the bisection's plus 2 ulp, and its worst error
// over the grid is no larger than the bisection's. Per point, both solve
// from the same float64 Eq. 10–11 aggregates and the truth they are held
// to is the equilibrium of those aggregates (and, for π_max, of the
// float64 market size K), so the comparison is of the two solves; over
// the grid, the worst errors are end to end.
func TestLogitAgainstReference(t *testing.T) {
	errs := refErrs{}
	// Worst relative errors end to end, new code and replaced code: s0,
	// price, π_max, and (logged only) the one-pass and softmax Eq. 11 cost.
	var worstNew, worstOld [4]float64
	worse := func(q int, closed, bisect float64, want *big.Float) {
		if scale, _ := rabs(want).Float64(); scale > 0 {
			worstNew[q] = math.Max(worstNew[q], refDist(closed, want)/scale)
			worstOld[q] = math.Max(worstOld[q], refDist(bisect, want)/scale)
		}
	}
	gate := func(where string, closed, bisect float64, want *big.Float) {
		t.Helper()
		if dc, db := refDist(closed, want), refDist(bisect, want); dc > db+2*ulpOf(want) {
			w, _ := want.Float64()
			t.Errorf("%s: closed form %v is %.3g from the truth %v, the bisection's %v only %.3g",
				where, closed, dc, w, bisect, db)
		}
	}
	r := rand.New(rand.NewSource(33))
	for _, alpha := range refAlphas {
		for _, mk := range logitMarkets(t, r, alpha) {
			m := Logit{Alpha: alpha, S0: 0.2}
			flows, n := mk.flows, len(mk.flows)
			at := func(what string) string {
				return mk.name + " n=" + itoa(n) + " α=" + ftoa(alpha) + " " + what
			}
			// κ bounds, in units of refU, the absolute rounding error of an
			// exponent α(v − c): the condition of s0, the markup and π_max.
			kappa := 0.0
			for _, f := range flows {
				kappa = math.Max(kappa, math.Abs(f.Valuation)+f.Cost)
			}
			kappa = 1 + alpha*kappa
			conditioned := func(x *big.Float) *big.Float { return rmul(rabs(x), rf(kappa)) }
			k := refLogitK(m, flows)
			if mk.demands != nil {
				vals, _ := m.FitValuations(mk.demands, mk.p0)
				want, scale := refLogitFit(m, mk.demands, mk.p0)
				for i := range vals {
					errs.check(t, "logit fit v", at("flow "+itoa(i)), vals[i], want[i], scale[i])
				}
				gamma, _, _ := m.CalibrateScale(vals, mk.rel, mk.p0)
				wantG, scaleG := refLogitGamma(m, vals, mk.rel, mk.p0)
				errs.check(t, "logit gamma", at(""), gamma, wantG, conditioned(scaleG))
			}
			partitions := [][][]int{OneBundle(n), Singletons(n)}
			if n >= 4 {
				partitions = append(partitions, contiguous(flows, 2), contiguous(flows, 4))
			}
			for _, parts := range partitions {
				where := at("b=" + itoa(len(parts)))
				vals, costs := m.bundleAggregates(flows, parts)
				wantV, wantC := refLogitAggregates(alpha, flows, parts)
				for b, block := range parts {
					// The terms of v_b: |max αv| + |ln Σe|, over α.
					mx := math.Inf(-1)
					bv, bc := make([]float64, len(block)), make([]float64, len(block))
					for j, i := range block {
						mx = math.Max(mx, alpha*flows[i].Valuation)
						bv[j], bc[j] = flows[i].Valuation, flows[i].Cost
					}
					scale := rquo(radd(rabs(rf(mx)), rabs(rsub(rmul(wantV[b], rf(alpha)), rf(mx)))), rf(alpha))
					errs.check(t, "logit Eq10 v_b", where, vals[b], wantV[b], conditioned(scale))
					errs.check(t, "logit Eq11 c_b", where, costs[b], wantC[b], conditioned(wantC[b]))
					softmaxCost, _ := m.BundleCost(bc, bv)
					worse(3, costs[b], softmaxCost, wantC[b])
				}
				hi, lo := make([]float64, len(parts)), make([]float64, len(parts))
				for b := range hi {
					hi[b], lo[b] = m.exponent(vals[b], costs[b])
				}
				w, err := m.equalMarkup(hi, lo)
				if err != nil {
					t.Fatal(err)
				}
				prices, err := m.PriceBundles(flows, parts)
				if err != nil {
					t.Fatal(err)
				}
				wantS0, wantP := refLogitPrices(alpha, flows, parts)
				bisP, bisS0 := bisectionPrices(m, vals, costs)
				s0 := 1 / (1 + w)
				errs.check(t, "logit s0", where, s0, wantS0, conditioned(wantS0))
				worse(0, s0, bisS0, wantS0)
				for b := range parts {
					errs.check(t, "logit price", where, prices[b], wantP[b], conditioned(wantP[b]))
					worse(1, prices[b], bisP[b], wantP[b])
				}
				// The gate: the equilibrium of the float64 aggregates.
				fv, fc := make([]*big.Float, len(parts)), make([]*big.Float, len(parts))
				for b := range parts {
					fv[b], fc[b] = rf(vals[b]), rf(costs[b])
				}
				solveW := refLogitW(alpha, fv, fc)
				gate(where+" s0", s0, bisS0, rquo(ri(1), radd(ri(1), solveW)))
				markup := rquo(radd(ri(1), solveW), rf(alpha))
				for b := range parts {
					gate(where+" price", prices[b], bisP[b], radd(fc[b], markup))
				}
				// The surplus's exponents are α(v − p): their condition is
				// κ_p, κ's with the prices for the costs.
				kappaP := 0.0
				for b, block := range parts {
					for _, i := range block {
						kappaP = math.Max(kappaP, math.Abs(flows[i].Valuation)+math.Abs(prices[b]))
					}
				}
				sur, err := m.Surplus(flows, parts, prices)
				if err != nil {
					t.Fatal(err)
				}
				wantSur, lse := refLogitSurplus(m, flows, parts, prices)
				scaleSur := rmul(rquo(rmul(k, radd(ri(1), lse)), rf(alpha)), rf(1+alpha*kappaP))
				errs.check(t, "logit surplus", where, sur, wantSur, scaleSur)
				if n <= 13 || len(parts) <= 4 {
					pi, _ := m.Profit(flows, parts, prices)
					wantPi, scale := refLogitProfit(m, flows, parts, wantP)
					// Where every share is subnormal or 0 the profit's
					// error floors at K·2⁻¹⁰²²·(p + c).
					if floor := rmul(k, rmul(rf(0x1p-1022), wantP[len(wantP)-1])); scale.Cmp(floor) < 0 {
						scale = floor
					}
					errs.check(t, "logit profit", where, pi, wantPi, conditioned(scale))
				}
			}
			pots, err := m.PotentialProfits(flows)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range refLogitPotential(m, flows) {
				errs.check(t, "logit potential", at("flow "+itoa(i)), pots[i], want, want)
			}
			max, err := m.MaxProfit(flows)
			if err != nil {
				t.Fatal(err)
			}
			wantMax := refLogitMaxProfit(m, flows)
			parts := Singletons(n)
			vals, costs := m.bundleAggregates(flows, parts)
			bisP, _ := bisectionPrices(m, vals, costs)
			bisMax, _ := m.Profit(flows, parts, bisP)
			// Where w is subnormal (S/e < 2⁻¹⁰²²) both answers carry fewer
			// than 53 bits: the error floors at K·2⁻¹⁰⁷⁴/α, and the gate
			// compares normal numbers only.
			floor := rquo(rmul(k, rf(0x1p-1022)), rf(alpha))
			if wantMax.Cmp(floor) >= 0 {
				errs.check(t, "logit max profit", at(""), max, wantMax, conditioned(wantMax))
				worse(2, max, bisMax, wantMax)
				// Both multiply by the float64 market size.
				gate(at("π_max"), max, bisMax, rmul(rquo(wantMax, k), rf(m.MarketSize(flows))))
			} else {
				errs.check(t, "logit max profit", at(""), max, wantMax, rmul(floor, rf(kappa)))
			}
			if n <= 13 {
				// The identity MaxProfit rests on: Eq. 8 at the
				// singleton equilibrium prices is K·W(S/e)/α.
				_, wantP := refLogitPrices(alpha, flows, parts)
				direct, _ := refLogitProfit(m, flows, parts, wantP)
				if !within(rsub(direct, wantMax), wantMax, refNewtonTol) {
					t.Errorf("%s: Eq. 8 at the singleton prices %v ≠ K·W/α %v", at(""), direct, wantMax)
				}
			}
			if mk.demands != nil && n >= 4 {
				orig, _ := m.Profit(flows, OneBundle(n), []float64{mk.p0})
				wantOrig, _ := refLogitProfit(m, flows, OneBundle(n), []*big.Float{rf(mk.p0)})
				for _, b := range []int{2, 4} {
					parts := contiguous(flows, b)
					prices, _ := m.PriceBundles(flows, parts)
					pi, _ := m.Profit(flows, parts, prices)
					_, wantP := refLogitPrices(alpha, flows, parts)
					wantPi, _ := refLogitProfit(m, flows, parts, wantP)
					wantCap, cond := refCapture(wantPi, wantOrig, wantMax)
					// pricing.Capture's quotient.
					errs.check(t, "logit capture", at("b="+itoa(b)), (pi-orig)/(max-orig), wantCap, cond)
				}
			}
		}
	}
	for q, name := range []string{"s0", "price", "π_max", "Eq. 11 c_b"} {
		if q < 3 && worstNew[q] > worstOld[q] {
			t.Errorf("%s: worst relative error %.3g, above the replaced code's %.3g", name, worstNew[q], worstOld[q])
		}
		t.Logf("%-10s worst relative error %.3g, replaced code %.3g", name, worstNew[q], worstOld[q])
	}
	errs.log(t, "logit")
}

// TestCEDAgainstReference holds the CED fit, Eqs. 4–5, profit, π_max,
// calibration and capture to the 256-bit reference.
func TestCEDAgainstReference(t *testing.T) {
	errs := refErrs{}
	r := rand.New(rand.NewSource(34))
	for _, alpha := range refAlphas {
		for _, n := range []int{1, 13, 200} {
			demands, rel := refDemands(r, n)
			fm, vals, err := CED{Alpha: alpha}.Refit(nil, nil, demands, 20)
			if err != nil {
				t.Fatal(err)
			}
			m := fm.(CED)
			at := func(what string) string { return "n=" + itoa(n) + " α=" + ftoa(alpha) + " " + what }
			wantV := refCEDFit(alpha, demands, 20)
			for i := range vals {
				scale := rmul(rabs(wantV[i]), rf(1+math.Abs(math.Log(demands[i]))/alpha))
				errs.check(t, "ced fit v", at("flow "+itoa(i)), vals[i], wantV[i], scale)
			}
			gamma, _, _ := m.CalibrateScale(vals, rel, 20)
			wantG := refCEDGamma(alpha, vals, rel, 20)
			errs.check(t, "ced gamma", at(""), gamma, wantG, wantG)
			flows := make([]Flow, n)
			for i := range flows {
				flows[i] = Flow{Demand: demands[i], Valuation: vals[i], Cost: gamma * rel[i]}
			}
			shapes := []refMarket{{name: "fitted", flows: flows}}
			if n == 13 {
				shapes = append(shapes, costShapes(flows, 0x1p-40*gamma)...)
			}
			for _, sh := range shapes {
				name, flows := sh.name, sh.flows
				at := func(what string) string { return name + " " + at(what) }
				for i, f := range flows {
					errs.check(t, "ced Eq4 price", at("flow "+itoa(i)), CEDOptimalPrice(f.Cost, alpha),
						refCEDPrice(alpha, rf(f.Cost)), refCEDPrice(alpha, rf(f.Cost)))
				}
				max, _ := m.MaxProfit(flows)
				singles := Singletons(n)
				wantSingle := make([]*big.Float, n)
				for i, f := range flows {
					wantSingle[i] = refCEDPrice(alpha, rf(f.Cost))
				}
				wantMax, _ := refCEDProfit(alpha, flows, singles, wantSingle)
				errs.check(t, "ced max profit", at(""), max, wantMax, wantMax)
				orig, _ := m.Profit(flows, OneBundle(n), []float64{20})
				wantOrig, _ := refCEDProfit(alpha, flows, OneBundle(n), []*big.Float{rf(20)})
				for _, b := range []int{1, 2, 4} {
					parts := contiguous(flows, b)
					prices, err := m.PriceBundles(flows, parts)
					if err != nil {
						t.Fatal(err)
					}
					wantP := make([]*big.Float, len(parts))
					for k, block := range parts {
						wantP[k] = refCEDBundlePrice(alpha, flows, block)
						errs.check(t, "ced Eq5 price", at("b="+itoa(b)), prices[k], wantP[k], wantP[k])
					}
					pi, _ := m.Profit(flows, parts, prices)
					wantPi, scale := refCEDProfit(alpha, flows, parts, wantP)
					errs.check(t, "ced profit", at("b="+itoa(b)), pi, wantPi, scale)
					if b > 1 && n >= 4 && name == "fitted" {
						wantCap, cond := refCapture(wantPi, wantOrig, wantMax)
						errs.check(t, "ced capture", at("b="+itoa(b)), (pi-orig)/(max-orig), wantCap, cond)
					}
				}
			}
		}
	}
	errs.log(t, "ced")
}

// TestMathPowAgainstReference pins math.Pow's distance from x^y where
// bundling's fixed-exponent kernel replaces it: the exponents 1 − α the
// evaluation and the benchmark use and a few between, x log-uniform over
// the kernel's tables (2^±32). TestFixedPowAgainstMathPow holds the
// kernel within 2·10⁻¹⁵ of math.Pow there, so this bound (16·2⁻⁵³,
// 1.8·10⁻¹⁵) puts it within 3.8·10⁻¹⁵ of x^y. Beyond the tables, out to
// 2^±60, math.Pow's worst is logged: the kernel returns math.Pow's own
// bits there.
func TestMathPowAgainstReference(t *testing.T) {
	errs, beyond := refErrs{}, 0.0
	r := rand.New(rand.NewSource(18))
	for _, y := range []float64{-0.01, -0.1, 1 - 1.1, -0.5, -1, -2.3, -9} {
		for range 300 {
			x := math.Exp2(-32 + 64*r.Float64())
			want := refPow(rf(x), rf(y))
			errs.check(t, "math.Pow", "x="+ftoa(x)+" y="+ftoa(y), math.Pow(x, y), want, want)
			x = math.Exp2(math.Copysign(32+28*r.Float64(), r.Float64()-0.5))
			want = refPow(rf(x), rf(y))
			d, _ := rquo(rabs(rsub(rf(math.Pow(x, y)), want)), want).Float64()
			beyond = math.Max(beyond, d/refU)
		}
	}
	errs.log(t, "pow")
	t.Logf("pow: beyond 2^±32        worst %7.3g u", beyond)
}

// log reports each quantity's worst error against its pinned bound.
func (e refErrs) log(t *testing.T, prefix string) {
	names := make([]string, 0, len(e))
	for name := range e {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Logf("%s: %-18s worst %7.3g u, bound %g u", prefix, name, e[name], refBounds[name])
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }
