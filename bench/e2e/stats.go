package e2e

import (
	"sort"
	"time"
)

// The box the benchmark runs on is a shared virtual machine whose
// processors lose a varying share of their speed to neighbours, on every
// time scale from a stolen 10 ms to a slow quarter of an hour
// (bench/README.md, "Steadiness", has the measurements). The noise only
// ever slows a slice down, so every timed segment is cut into slices and
// reports its quiet decile — the value the best tenth of its slices reach
// — and a run reports the best of its segments.

// sliceWidth is the length of one slice of a request stream.
const sliceWidth = 100 * time.Millisecond

// sample is one timed request: when it was due (closed loop: sent), as an
// offset from the start of measurement, and how long its answer took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// Quiet is the quiet decile of a metric's slice values: the 10th
// percentile when lower is better, the 90th when higher is; with fewer
// than six slices that is the best one.
func Quiet(vals []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return rank(vals, 0.9)
	}
	return rank(vals, 0.1)
}

// rank is the q-quantile of vals by nearest rank; 0 when empty.
func rank(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// bySlice cuts the samples of several request streams into whole slices
// of the measured span and returns each slice's completed requests per
// second and median latency in microseconds, plus the p99 over all
// samples. Slices nothing was due in are left out.
func bySlice(span time.Duration, streams ...[]sample) (perSec, p50us []float64, p99us float64) {
	n := int(span / sliceWidth)
	lats := make([][]float64, n)
	var all []float64
	for _, st := range streams {
		for _, s := range st {
			us := float64(s.lat) / 1e3
			all = append(all, us)
			if k := int(s.at / sliceWidth); s.at >= 0 && k < n {
				lats[k] = append(lats[k], us)
			}
		}
	}
	for _, l := range lats {
		if len(l) == 0 {
			continue
		}
		perSec = append(perSec, float64(len(l))/sliceWidth.Seconds())
		p50us = append(p50us, rank(l, 0.5))
	}
	return perSec, p50us, rank(all, 0.99)
}
