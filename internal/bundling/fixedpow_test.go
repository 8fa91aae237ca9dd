package bundling

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/optimize"
)

// checkFixedPow is the kernel's oracle: inside its tables p.pow(x) is
// within tol of math.Pow(x, p.y), relatively; everywhere else it is
// math.Pow's very bits.
func checkFixedPow(t *testing.T, p *fixedPow, x, tol float64) {
	t.Helper()
	got, want := p.pow(x), math.Pow(x, p.y)
	if e := math.Float64bits(x) >> 52; p.scale == nil || e < 1023-powSpan || e >= 1023+powSpan {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow(%v, %v) = %v (%#x) outside the tables, math.Pow %v (%#x)",
				x, p.y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		return
	}
	if math.Abs(got-want) > tol*want {
		t.Fatalf("pow(%v, %v) = %v, math.Pow %v: relative error %.3g > %.3g",
			x, p.y, got, want, math.Abs(got-want)/want, tol)
	}
}

// TestFixedPowAgainstMathPow pins the accuracy contract cedTerm states —
// block values within 2·10⁻¹⁵ of the math.Pow formula — at the exponents
// 1−α the evaluation and the benchmark use and a few between: 2²⁰
// log-uniform x ∈ [2⁻⁶⁰, 2⁶⁰] each, just over half of them inside the
// tables (2^±32; beyond that math.Pow itself is up to 18·2⁻⁵³ ≈ 2·10⁻¹⁵
// from x^y at a fractional exponent, so nothing can stay within the
// contract of it and those x are its own). It rests on econ's
// TestMathPowAgainstReference, which holds math.Pow to x^y — a 256-bit
// reference — within 16·2⁻⁵³ inside the tables at these exponents: the
// kernel is within 3.8·10⁻¹⁵ of x^y there.
func TestFixedPowAgainstMathPow(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, y := range []float64{-0.01, -0.1, 1 - 1.1, -0.5, -1, -2.3, -9} {
		p := newFixedPow(y)
		if p.scale == nil {
			t.Fatalf("no tables at y = %v", y)
		}
		for i := 0; i < 1<<20; i++ {
			checkFixedPow(t, p, math.Exp2(-60+120*rng.Float64()), 2e-15)
		}
		for _, x := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1),
			5e-324, 0x1p-1023, math.MaxFloat64, 0x1p-200, 0x1p200, 0x1p-33, 0x1p32,
			0x1p-32, math.Nextafter(0x1p32, 0), 1, math.Nextafter(1, 0), 1 + 1.0/256, math.Nextafter(1+1.0/256, 0)} {
			checkFixedPow(t, p, x, 2e-15)
		}
	}
	// Past the series budget, past the scale table's range, and not a
	// number: no tables, math.Pow answers.
	for _, y := range []float64{-40, 2000, -29, math.NaN(), math.Inf(-1)} {
		p := newFixedPow(y)
		if p.scale != nil {
			t.Fatalf("tables at y = %v", y)
		}
		for _, x := range []float64{0.37, 1, 12.5, 0, math.Inf(1)} {
			checkFixedPow(t, p, x, 0)
		}
	}
}

// TestFixedPowCacheIsBounded: a thousand distinct exponents leave at most
// the cache's slots occupied, and the exponent asked for last is served
// from them.
func TestFixedPowCacheIsBounded(t *testing.T) {
	for i := 0; i < 1000; i++ {
		y := -0.1 - float64(i)/128
		if p := fixedPowFor(y); p.y != y {
			t.Fatalf("fixedPowFor(%v) returned the tables of %v", y, p.y)
		}
	}
	distinct := map[float64]bool{}
	for i := range powCache {
		if p := powCache[i].Load(); p != nil {
			distinct[p.y] = true
		}
	}
	if len(distinct) > len(powCache) || len(distinct) < 2 {
		t.Fatalf("%d exponents cached in %d slots", len(distinct), len(powCache))
	}
	if a, b := fixedPowFor(-7.25), fixedPowFor(-7.25); a != b {
		t.Fatal("a repeated exponent rebuilt its tables")
	}
}

// FuzzFixedPow runs the same oracle from arbitrary bits. At an arbitrary
// exponent the tolerance widens with |y|: math.Pow's own distance from
// x^y does (its Log(x)·frac(y) product, its repeated squaring), while the
// kernel's stays near 5·10⁻¹⁶.
func FuzzFixedPow(f *testing.F) {
	for _, s := range [][2]float64{{1.5, -0.1}, {0x1p-32, -9}, {3e9, -2.3}, {0, -0.5}, {7, 27.5}, {math.NaN(), -1}, {2, math.NaN()}} {
		f.Add(math.Float64bits(s[0]), math.Float64bits(s[1]))
	}
	f.Fuzz(func(t *testing.T, xbits, ybits uint64) {
		y := math.Float64frombits(ybits)
		checkFixedPow(t, newFixedPow(y), math.Float64frombits(xbits), 2e-15*(1+math.Abs(y)))
	})
}

// TestCEDKernelKeepsPartitions: the kernel moves block values by an ulp
// or a few, and no cut with them — the DP cuts the kernel's view where it
// cuts the math.Pow block value, and Optimal returns that partition, on
// fitted markets and on the shapes where candidate cuts tie or sit at
// the cap (a zero cost is the DP's to see only: Bundle refuses the flow).
func TestCEDKernelKeepsPartitions(t *testing.T) {
	shapes := map[string]func(flows []econ.Flow){
		"fitted": func([]econ.Flow) {},
		"equal-cost-run": func(flows []econ.Flow) {
			for i := len(flows) / 4; i < len(flows)/2; i++ {
				flows[i].Cost = flows[len(flows)/4].Cost
			}
		},
		"zero-cost-run": func(flows []econ.Flow) {
			for i := 0; i < len(flows)/5; i++ {
				flows[3*i].Cost = 0
			}
		},
	}
	for _, n := range []int{10, 200, 5000} {
		for _, alpha := range []float64{1.1, 2, 5} {
			for name, reshape := range shapes {
				m := econ.CED{Alpha: alpha}
				flows := fitFlows(t, m, n, int64(n)+int64(alpha*10), 20)
				reshape(flows)
				order, _ := CostOrder(flows, nil)
				for b := 2; b <= 6; b++ {
					want, _, err := optimize.ContiguousDPMonotone(n, b, parentCEDBlockValue(flows, order, alpha))
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := optimize.ContiguousDPMonotone(n, b, cedBlockValue(flows, order, alpha))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d α=%v %s b=%d: cuts %v over the kernel, %v over math.Pow", n, alpha, name, b, got, want)
					}
					if name == "zero-cost-run" {
						continue
					}
					partition, err := Optimal{}.Bundle(flows, m, b)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.EqualFunc(partition, optimize.BlocksToPartition(want, order), slices.Equal[[]int]) {
						t.Fatalf("n=%d α=%v %s b=%d: Optimal's partition is not the math.Pow DP's", n, alpha, name, b)
					}
				}
			}
		}
	}
}
