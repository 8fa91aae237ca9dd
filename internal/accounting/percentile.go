package accounting

import (
	"errors"
	"fmt"
	"sort"
)

// PercentileBilling prices traffic the way transit contracts actually
// do: the billing window is cut into fixed intervals (classically 5
// minutes), each interval's average Mbps is a sample, the top
// (1 − Percentile) fraction of samples is discarded, and the highest
// surviving sample is the billable rate. Bursts above the percentile are
// free — the practice the paper's $/Mbps/month prices plug into.
type PercentileBilling struct {
	// Percentile in (0, 1]; zero selects the standard 0.95.
	Percentile float64
}

// Rate returns the billable Mbps for one tier's interval samples.
func (pb PercentileBilling) Rate(samplesMbps []float64) (float64, error) {
	if len(samplesMbps) == 0 {
		return 0, errors.New("accounting: no samples")
	}
	p := pb.Percentile
	if p == 0 {
		p = 0.95
	}
	if p <= 0 || p > 1 {
		return 0, fmt.Errorf("accounting: percentile %v outside (0, 1]", p)
	}
	sorted := append([]float64(nil), samplesMbps...)
	sort.Float64s(sorted)
	// Discard the top (1−p) fraction; bill the highest survivor.
	idx := int(p*float64(len(sorted))+1e-9) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx], nil
}

// Bill prices per-tier interval samples at the given $/Mbps/month rates.
func (pb PercentileBilling) Bill(samplesPerTier map[int][]float64, prices []float64) (Bill, error) {
	b := Bill{MbpsPerTier: map[int]float64{}, ChargePerTier: map[int]float64{}}
	for tier, samples := range samplesPerTier {
		if tier < 0 || tier >= len(prices) {
			return Bill{}, fmt.Errorf("accounting: no price for tier %d", tier)
		}
		rate, err := pb.Rate(samples)
		if err != nil {
			return Bill{}, fmt.Errorf("accounting: tier %d: %w", tier, err)
		}
		b.MbpsPerTier[tier] = rate
		b.ChargePerTier[tier] = rate * prices[tier]
		b.Total += rate * prices[tier]
	}
	return b, nil
}
