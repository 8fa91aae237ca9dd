// Package hist is tierd's one histogram type: fixed buckets in the
// Prometheus cumulative style, lock-free to observe. The server renders
// its latency histograms from it and the WAL summarises its fsync
// latencies with it; both read quantiles at bucket resolution.
package hist

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram in the Prometheus cumulative
// style. Observations are lock-free.
type Histogram struct {
	bounds []float64       // ascending upper bounds
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	max    atomic.Uint64   // float64 bits of the largest observation, CAS-raised from 0
	count  atomic.Uint64
}

// New creates a histogram with the given ascending upper bounds. An
// implicit +Inf bucket is appended.
func New(bounds ...float64) (*Histogram, error) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("hist: bounds not ascending at %d", i)
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}, nil
}

// Observe records one value: it lands in the first bucket whose upper
// bound is at least v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, newBits) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of the observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Max returns the largest observation, or 0 if none exceeded 0.
func (h *Histogram) Max() float64 { return math.Float64frombits(h.max.Load()) }

// Buckets calls fn with each bucket's upper bound, ascending and ending
// at +Inf, and the number of observations at or below it.
func (h *Histogram) Buckets(fn func(le float64, cumulative uint64)) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fn(b, cum)
	}
	fn(math.Inf(1), cum+h.counts[len(h.bounds)].Load())
}

// Quantile returns the q-quantile by nearest rank at bucket resolution:
// the upper bound of the bucket holding the ⌈q·n⌉-th smallest
// observation, or Max when that is smaller — always so in the +Inf
// bucket. It never understates the observation at the rank, and an
// observation equal to a bound reads back exactly. 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, b := range h.bounds {
		if cum += h.counts[i].Load(); cum >= rank {
			return math.Min(b, h.Max())
		}
	}
	return h.Max()
}
