package optimize

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchVal builds prefix sums for a cheap convex member of the objective
// family: val(lo, hi) = W²/CW, i.e. W·g(C) with g(C) = 1/C strictly
// convex on C > 0. A call costs two loads and three flops, so the
// benchmark measures the DP itself rather than math.Pow/Exp, and the
// value still satisfies the concave-Monge condition the monotone solver
// requires.
func benchVal(n int, seed int64) BlockValue {
	r := rand.New(rand.NewSource(seed))
	prefW := make([]float64, n+1)
	prefCW := make([]float64, n+1)
	for i := 0; i < n; i++ {
		w := 0.1 + r.Float64()
		c := 0.1 + r.Float64()*10
		prefW[i+1] = prefW[i] + w
		prefCW[i+1] = prefCW[i] + c*w
	}
	return func(lo, hi int) float64 {
		w := prefW[hi] - prefW[lo]
		return w * w / (prefCW[hi] - prefCW[lo])
	}
}

// BenchmarkContiguousDP times both solvers across an n × B grid. The
// monotone rows grow linearly in n where the quadratic rows grow with
// n², with allocs/op flat or lower (the scratch pool makes repeated
// monotone solves allocate only the returned blocks).
func BenchmarkContiguousDP(b *testing.B) {
	for _, s := range solvers() {
		for _, n := range []int{100, 1000, 10000} {
			val := benchVal(n, int64(n))
			for _, maxBlocks := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10} {
				b.Run(fmt.Sprintf("%s/n=%d/B=%d", s.name, n, maxBlocks), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := s.solve(n, maxBlocks, val); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkDPScratchSolve times the near-zero-alloc path a caller holding
// its own scratch sees (the repricer's ticks, an experiment worker's
// strategy × B fan-out): only the returned blocks allocate. The second
// case is the online repricer's largest tenant.
func BenchmarkDPScratchSolve(b *testing.B) {
	for _, c := range []struct{ n, maxBlocks int }{{1000, 6}, {20000, 4}} {
		b.Run(fmt.Sprintf("n=%d/B=%d", c.n, c.maxBlocks), func(b *testing.B) {
			val := benchVal(c.n, 7)
			s := GetDPScratch()
			defer PutDPScratch(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Solve(c.n, c.maxBlocks, val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
