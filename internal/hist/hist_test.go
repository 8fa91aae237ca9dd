package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQuantile is the exact nearest-rank quantile on a sorted copy of vs:
// the smallest value with at least ⌈q·n⌉ observations at or below it.
func refQuantile(vs []int64, q float64) int64 {
	sorted := append([]int64(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
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

func recordAll(t testing.TB, vs []int64) *Histogram {
	t.Helper()
	h := New()
	for _, v := range vs {
		h.Record(v)
	}
	return h
}

var quantileSweep = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

// TestQuantileExactSmallValues: below 2^precision every bucket is a unit
// bucket, so the histogram must reproduce the reference quantile exactly.
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
			h := recordAll(t, tc.vs)
			if h.Count() != uint64(len(tc.vs)) {
				t.Fatalf("count %d, want %d", h.Count(), len(tc.vs))
			}
			for _, q := range quantileSweep {
				got, want := h.Quantile(q), refQuantile(tc.vs, q)
				if got != want {
					t.Errorf("q=%g: got %d, want %d", q, got, want)
				}
			}
			if got, want := h.Max(), refQuantile(tc.vs, 1); got != want {
				t.Errorf("max %d, want %d", got, want)
			}
			if want, ok := refSum(tc.vs); !ok || h.Sum() != want {
				t.Errorf("sum %v, want %v", h.Sum(), want)
			}
		})
	}
}

// TestQuantileLongTail: large values land in logarithmic buckets; the
// reported quantile must bracket the exact one within the relative error
// bound 2^-precision, and never understate it.
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
	relErr := math.Pow(2, -precision)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := recordAll(t, tc.vs)
			for _, q := range quantileSweep {
				got, want := h.Quantile(q), refQuantile(tc.vs, q)
				if got < want {
					t.Errorf("q=%g: got %d understates exact %d", q, got, want)
				}
				if float64(got-want) > relErr*float64(want)+1 {
					t.Errorf("q=%g: got %d exceeds exact %d beyond %.1f%% relative error",
						q, got, want, relErr*100)
				}
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
	h := New()
	for i := 0; i < 10_000; i++ {
		// Log-uniform over ~9 decades, the shape of latency data.
		h.Record(int64(math.Exp(r.Float64() * 20)))
	}
	prev := h.Quantile(0)
	for q := 0.0; q <= 1.0; q += 0.001 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone at q=%g: %d < %d", q, cur, prev)
		}
		prev = cur
	}
}

func TestEmptyAndNegative(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Record(-5) // clamped to 0
	if h.Count() != 1 || h.Quantile(0) != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Errorf("negative record not clamped: min %d max %d sum %v", h.Quantile(0), h.Max(), h.Sum())
	}
}

// TestBucketGeometry pins the index/upper-bound round trip: every value's
// bucket upper bound is ≥ the value and within the relative error bound.
func TestBucketGeometry(t *testing.T) {
	relErr := math.Pow(2, -precision)
	r := rand.New(rand.NewSource(3))
	probe := []int64{0, 1, 63, 64, 65, 127, 128, 129, 1<<20 - 1, 1 << 20, math.MaxInt64}
	for i := 0; i < 10_000; i++ {
		probe = append(probe, r.Int63())
	}
	for _, v := range probe {
		i := bucketIndex(v)
		if i < 0 || i >= bucketCount {
			t.Fatalf("value %d: bucket %d out of range [0, %d)", v, i, bucketCount)
		}
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("value %d: bucket upper %d understates it", v, up)
		}
		if float64(up-v) > relErr*float64(v)+1 {
			t.Fatalf("value %d: bucket upper %d beyond relative error", v, up)
		}
	}
}

func BenchmarkRecord(b *testing.B) {
	h := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i)*7919 + 50_000)
	}
}

func BenchmarkQuantile(b *testing.B) {
	h := New()
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100_000; i++ {
		h.Record(r.Int63n(1_000_000_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}
