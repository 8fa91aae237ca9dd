package accounting

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileRateDiscardsTopFivePercent(t *testing.T) {
	// 100 samples: 95 at 10 Mbps, 5 bursts at 1000 Mbps. The 95th
	// percentile bills the 10 Mbps baseline — bursts are free.
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = 10
	}
	for i := 0; i < 5; i++ {
		samples[i*17%100] = 1000
	}
	rate, err := PercentileBilling{}.Rate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 10 {
		t.Fatalf("95th percentile rate = %v, want 10", rate)
	}
	// At the 100th percentile the burst is billable.
	rate, err = PercentileBilling{Percentile: 1}.Rate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 1000 {
		t.Fatalf("max rate = %v, want 1000", rate)
	}
}

func TestPercentileRateErrors(t *testing.T) {
	if _, err := (PercentileBilling{}).Rate(nil); err == nil {
		t.Error("expected error for no samples")
	}
	if _, err := (PercentileBilling{Percentile: 1.5}).Rate([]float64{1}); err == nil {
		t.Error("expected error for percentile > 1")
	}
	if _, err := (PercentileBilling{Percentile: -0.1}).Rate([]float64{1}); err == nil {
		t.Error("expected error for negative percentile")
	}
}

func TestPercentileRateMonotoneInPercentile(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.Float64() * 100
	}
	prev := -1.0
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		rate, err := PercentileBilling{Percentile: p}.Rate(samples)
		if err != nil {
			t.Fatal(err)
		}
		if rate < prev {
			t.Fatalf("rate not monotone: p=%v rate=%v prev=%v", p, rate, prev)
		}
		prev = rate
	}
}

func TestPercentileBill(t *testing.T) {
	samples := map[int][]float64{
		0: {10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 500},
		1: {5, 5, 5, 5},
	}
	bill, err := PercentileBilling{}.Bill(samples, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Tier 0: 20 samples, 95th percentile discards the single burst.
	if bill.MbpsPerTier[0] != 10 {
		t.Fatalf("tier 0 rate = %v, want 10", bill.MbpsPerTier[0])
	}
	want := 10*2.0 + 5*4.0
	if math.Abs(bill.Total-want) > 1e-12 {
		t.Fatalf("total = %v, want %v", bill.Total, want)
	}
	if _, err := (PercentileBilling{}).Bill(map[int][]float64{5: {1}}, []float64{1}); err == nil {
		t.Error("expected error for unpriced tier")
	}
	if _, err := (PercentileBilling{}).Bill(map[int][]float64{0: {}}, []float64{1}); err == nil {
		t.Error("expected error for empty samples")
	}
}

func TestPercentileVsAverageBilling(t *testing.T) {
	// Bursty traffic: percentile billing charges less than peak but more
	// than nothing; the relationship avg ≤ p95 ≤ max must hold.
	r := rand.New(rand.NewSource(11))
	samples := make([]float64, 288) // one day of 5-minute samples
	var sum, max float64
	for i := range samples {
		v := 50 + 30*r.Float64()
		if i%40 == 0 {
			v = 400 // short daily bursts
		}
		samples[i] = v
		sum += v
		if v > max {
			max = v
		}
	}
	avg := sum / float64(len(samples))
	p95, err := PercentileBilling{}.Rate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if !(avg <= p95 && p95 <= max) {
		t.Fatalf("avg %v ≤ p95 %v ≤ max %v violated", avg, p95, max)
	}
	if p95 >= 400 {
		t.Fatalf("p95 = %v should exclude the bursts", p95)
	}
}
