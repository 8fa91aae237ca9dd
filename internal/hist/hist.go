// Package hist is an HDR-style latency histogram: fixed-size,
// allocation-free recording of non-negative int64 values (nanoseconds,
// by convention) into logarithmic buckets with a bounded relative
// error, plus exact-rank quantile extraction.
//
// The bucket geometry follows the High Dynamic Range histogram design:
// values below 2^precision land in exact unit buckets; above that, each
// power-of-two range is split into 2^precision sub-buckets, so every
// recorded value is reproduced to within a relative error of
// 2^-precision (≈1.6% at the precision of 6 used here). Covering the
// full int64 range takes (64-p)·2^p buckets, so a histogram is ~29 KiB
// and recording is two array index computations, never an allocation.
//
// Histograms are NOT safe for concurrent use: the one caller, the WAL's
// fsync summary (wal.Stats), records and reads under its own mutex.
package hist

import (
	"math"
	"math/bits"
)

// precision is the sub-bucket resolution exponent: values are resolved
// to 2^-6 ≈ 1.6% relative error.
const precision = 6

// bucketCount is the number of buckets the geometry needs to cover
// [0, MaxInt64]: 2^p exact unit buckets plus 2^p sub-buckets for each of
// the (63-p) remaining octaves.
const bucketCount = 1<<precision + (63-precision)<<precision

// Histogram records int64 values into fixed logarithmic buckets.
type Histogram struct {
	counts   []uint64
	total    uint64
	sum      float64 // running sum of recorded values
	min, max int64   // exact extremes; valid when total > 0
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{counts: make([]uint64, bucketCount)}
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 1<<precision {
		return int(v)
	}
	// v ∈ [2^exp, 2^(exp+1)): keep the top precision bits after the
	// leading one as the sub-bucket.
	exp := uint(bits.Len64(uint64(v))) - 1
	sub := int(v>>(exp-precision)) - 1<<precision
	return 1<<precision + int(exp-precision)<<precision + sub
}

// bucketUpper is the largest value that maps into bucket i; quantiles
// report it so they never understate a latency.
func bucketUpper(i int) int64 {
	if i < 1<<precision {
		return int64(i)
	}
	i -= 1 << precision
	octave := uint(i >> precision)
	sub := int64(i&(1<<precision-1)) + 1<<precision
	return (sub+1)<<octave - 1
}

// Record adds one observation. Negative values are clamped to zero
// (latency math can produce tiny negatives from clock adjustments).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
}

// Count is the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Max is the largest recorded value, exact; 0 when empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Sum is the sum of recorded values (after clamping), exact while it
// stays below 2^53; 0 when empty.
func (h *Histogram) Sum() float64 { return h.sum }

// Quantile returns the q-quantile (q in [0,1]) under the nearest-rank
// definition: the smallest recorded value v such that at least ⌈q·n⌉
// observations are ≤ v. q=0 returns the exact minimum, q=1 the exact
// maximum; interior quantiles are bucket upper bounds, within the
// histogram's relative error of the exact order statistic. Returns 0
// when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketUpper(i)
			// The top bucket's upper bound can overshoot the true max.
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max // unreachable: cum reaches total
}
