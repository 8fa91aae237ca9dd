package hist

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// fsyncScale is a 1-2.5-5 bound ladder from 1e3 to 1e9, the WAL's.
var fsyncScale = []float64{1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9}

// unitBounds are the bounds 0, 1, …, 63: every integer up to 63 is a
// bucket edge.
func unitBounds() []float64 {
	b := make([]float64, 64)
	for i := range b {
		b[i] = float64(i)
	}
	return b
}

// refQuantile is the exact nearest-rank quantile on a sorted copy of vs:
// the smallest value with at least ⌈q·n⌉ observations at or below it.
func refQuantile(vs []int64, q float64) int64 {
	sorted := append([]int64(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// refBucketQuantile is the documented answer at bucket resolution: the
// first bound at or above the exact quantile, capped at the maximum;
// the maximum itself past the last bound.
func refBucketQuantile(bounds []float64, vs []int64, q float64) float64 {
	exact, max := float64(refQuantile(vs, q)), float64(refQuantile(vs, 1))
	for _, b := range bounds {
		if exact <= b {
			return math.Min(b, max)
		}
	}
	return max
}

// refSum is the integer sum of vs as a float64, and whether that is
// exact (no int64 overflow, below 2^53).
func refSum(vs []int64) (float64, bool) {
	var sum int64
	for _, v := range vs {
		if sum > 1<<53-v {
			return 0, false
		}
		sum += v
	}
	return float64(sum), true
}

func mustNew(t testing.TB, bounds ...float64) *Histogram {
	t.Helper()
	h, err := New(bounds...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func observeAll(t testing.TB, bounds []float64, vs []int64) *Histogram {
	t.Helper()
	h := mustNew(t, bounds...)
	for _, v := range vs {
		h.Observe(float64(v))
	}
	return h
}

var quantileSweep = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

// TestQuantileAtBucketResolution pins the three readings of Quantile: the
// upper bound of the bucket holding the rank, an observation on a bound
// read back as itself, and the maximum from the +Inf bucket.
func TestQuantileAtBucketResolution(t *testing.T) {
	h := mustNew(t, 1, 2, 5, 10)
	for _, v := range []float64{1.5, 3, 3, 7, 12} {
		h.Observe(v)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.2, 2},            // rank 1: 1.5, bucket le=2
		{0.5, 5},            // rank 3: 3, bucket le=5
		{0.8, 10},           // rank 4: 7, bucket le=10
		{0.99, 12}, {1, 12}, // rank 5: 12, the +Inf bucket
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("q=%g: got %g, want %g", c.q, got, c.want)
		}
	}
	edge := mustNew(t, 1, 2, 5, 10)
	edge.Observe(5)
	edge.Observe(12)
	if got := edge.Quantile(0.5); got != 5 {
		t.Errorf("an observation of 5 on the bound 5 reads back as %g", got)
	}
	if got := edge.Max(); got != 12 {
		t.Errorf("max %g, want 12", got)
	}
}

// TestQuantileExactSmallValues: with a bound on every integer up to 63,
// every observation sits on a bucket edge, so the histogram must
// reproduce the exact quantile.
func TestQuantileExactSmallValues(t *testing.T) {
	cases := []struct {
		name string
		vs   []int64
	}{
		{"single-sample", []int64{42}},
		{"all-equal", []int64{7, 7, 7, 7, 7, 7}},
		{"two-values", []int64{1, 2}},
		{"sequence", []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"skewed", []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 63}},
		{"with-zero", []int64{0, 0, 0, 10}},
		{"unsorted", []int64{30, 2, 17, 2, 45, 9, 60, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := observeAll(t, unitBounds(), tc.vs)
			if h.Count() != uint64(len(tc.vs)) {
				t.Fatalf("count %d, want %d", h.Count(), len(tc.vs))
			}
			for _, q := range quantileSweep {
				got, want := h.Quantile(q), float64(refQuantile(tc.vs, q))
				if got != want {
					t.Errorf("q=%g: got %g, want %g", q, got, want)
				}
			}
			if got, want := h.Max(), float64(refQuantile(tc.vs, 1)); got != want {
				t.Errorf("max %g, want %g", got, want)
			}
			if want, ok := refSum(tc.vs); !ok || h.Sum() != want {
				t.Errorf("sum %v, want %v", h.Sum(), want)
			}
		})
	}
}

// TestQuantileLongTail: on the fsync ladder, every quantile is the
// documented bucket reading, never understates the exact one, and a tail
// past the last bound reads as the maximum.
func TestQuantileLongTail(t *testing.T) {
	cases := []struct {
		name string
		vs   []int64
	}{
		{"microseconds-to-seconds", func() []int64 {
			vs := make([]int64, 0, 1000)
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 990; i++ {
				vs = append(vs, 50_000+r.Int63n(200_000)) // 50–250µs body
			}
			for i := 0; i < 10; i++ {
				vs = append(vs, 1_000_000_000+r.Int63n(2_000_000_000)) // 1–3s tail
			}
			return vs
		}()},
		{"powers-of-two", []int64{1 << 10, 1 << 20, 1 << 30, 1 << 40, 1 << 50}},
		{"huge", []int64{math.MaxInt64, math.MaxInt64 - 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := observeAll(t, fsyncScale, tc.vs)
			for _, q := range quantileSweep {
				got := h.Quantile(q)
				if want := refBucketQuantile(fsyncScale, tc.vs, q); got != want {
					t.Errorf("q=%g: got %g, want %g", q, got, want)
				}
				if exact := float64(refQuantile(tc.vs, q)); got < exact {
					t.Errorf("q=%g: got %g understates exact %g", q, got, exact)
				}
			}
			if got, want := h.Quantile(1), float64(refQuantile(tc.vs, 1)); got != want {
				t.Errorf("q=1 reads %g, not the maximum %g", got, want)
			}
			// Sum is not bucketed: exact wherever a float64 holds the integer.
			if want, ok := refSum(tc.vs); ok && h.Sum() != want {
				t.Errorf("sum %v, want exactly %v", h.Sum(), want)
			}
		})
	}
}

// TestQuantilesMonotone: a quantile sweep must be non-decreasing in q.
func TestQuantilesMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	h := mustNew(t, fsyncScale...)
	for i := 0; i < 10_000; i++ {
		// Log-uniform over ~9 decades, the shape of latency data.
		h.Observe(math.Exp(r.Float64() * 20))
	}
	prev := h.Quantile(0)
	for q := 0.0; q <= 1.0; q += 0.001 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone at q=%g: %g < %g", q, cur, prev)
		}
		prev = cur
	}
}

// TestEmptyAndNegative: an empty histogram reads zeros; a negative
// observation lands in the first bucket and reads no higher than 0.
func TestEmptyAndNegative(t *testing.T) {
	h := mustNew(t, fsyncScale...)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(-5)
	if h.Count() != 1 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Sum() != -5 {
		t.Errorf("negative observation: count %d q50 %g max %g sum %g", h.Count(), h.Quantile(0.5), h.Max(), h.Sum())
	}
	var first uint64
	h.Buckets(func(le float64, cum uint64) {
		if le == fsyncScale[0] {
			first = cum
		}
	})
	if first != 1 {
		t.Errorf("first bucket holds %d, want the negative observation", first)
	}
}

// TestBucketGeometry: Buckets reports every bound ascending, then +Inf,
// each with the number of observations at or below it, so a value on a
// bound counts in that bound's bucket.
func TestBucketGeometry(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var vs []float64
	for _, b := range fsyncScale {
		vs = append(vs, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	for i := 0; i < 10_000; i++ {
		vs = append(vs, math.Exp(r.Float64()*23))
	}
	h := mustNew(t, fsyncScale...)
	for _, v := range vs {
		h.Observe(v)
	}
	i := 0
	h.Buckets(func(le float64, cum uint64) {
		want := math.Inf(1)
		if i < len(fsyncScale) {
			want = fsyncScale[i]
		}
		if le != want {
			t.Fatalf("bucket %d: bound %g, want %g", i, le, want)
		}
		var n uint64
		for _, v := range vs {
			if v <= le {
				n++
			}
		}
		if cum != n {
			t.Fatalf("bucket le=%g: %d at or below, want %d", le, cum, n)
		}
		i++
	})
	if i != len(fsyncScale)+1 {
		t.Fatalf("%d buckets, want %d", i, len(fsyncScale)+1)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	if _, err := New(1, 0.5); err == nil {
		t.Error("expected error for descending bounds")
	}
	if _, err := New(1, 1); err == nil {
		t.Error("expected error for duplicate bounds")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := mustNew(t, 0.5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25 + float64(g))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if h.Max() != 7.25 {
		t.Errorf("max = %g, want 7.25", h.Max())
	}
	if want := 1000 * (8*0.25 + 28); h.Sum() != want {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
}

func BenchmarkObserve(b *testing.B) {
	h := mustNew(b, fsyncScale...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000)*7919 + 50_000)
	}
}

func BenchmarkQuantile(b *testing.B) {
	h := mustNew(b, fsyncScale...)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100_000; i++ {
		h.Observe(float64(r.Int63n(1_000_000_000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}
