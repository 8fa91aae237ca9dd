package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/econ"
)

// syntheticFlows builds a flow population shaped like the paper's traces:
// lognormal distances with modest spread (Table 1 distance CVs are all
// below 0.7) and gravity-coupled demands q ∝ d^{−η}·noise, so local
// destinations carry most traffic. This coupling is what makes the
// demand/profit-weighted heuristics competitive in the paper's data.
func syntheticFlows(n int, seed int64) []econ.Flow {
	r := rand.New(rand.NewSource(seed))
	flows := make([]econ.Flow, n)
	for i := range flows {
		d := math.Exp(r.NormFloat64()*0.63 + 4) // miles, CV ≈ 0.7
		flows[i] = econ.Flow{
			ID:       "dst" + string(rune('a'+i%26)),
			Demand:   100 * math.Pow(d/54, -1.8) * math.Exp(r.NormFloat64()*0.25),
			Distance: d,
			Region:   cost.ClassifyByDistance(d, 10, 100),
		}
	}
	return flows
}

func TestNewMarketValidations(t *testing.T) {
	flows := syntheticFlows(5, 1)
	d := econ.CED{Alpha: 1.1}
	c := cost.Linear{Theta: 0.2}
	if _, err := NewMarket(nil, d, c, 20); err == nil {
		t.Error("expected error for no flows")
	}
	if _, err := NewMarket(flows, nil, c, 20); err == nil {
		t.Error("expected error for nil demand model")
	}
	if _, err := NewMarket(flows, d, nil, 20); err == nil {
		t.Error("expected error for nil cost model")
	}
	if _, err := NewMarket(flows, d, c, 0); err == nil {
		t.Error("expected error for zero blended rate")
	}
	for _, x := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := NewMarket(flows, d, c, x); err == nil {
			t.Errorf("expected error for blended rate %v", x)
		}
		bad := append([]econ.Flow(nil), flows...)
		bad[2].Demand = x
		if _, err := NewMarket(bad, d, c, 20); err == nil {
			t.Errorf("expected error for demand %v", x)
		}
	}
}

// TestMarketCurveMatchesRun: Curve's entry b-1 is Run(s, b), every field,
// for every strategy under both models.
func TestMarketCurveMatchesRun(t *testing.T) {
	for _, d := range []econ.Model{econ.CED{Alpha: 1.1}, econ.Logit{Alpha: 1.1, S0: 0.2}} {
		m, err := NewMarket(syntheticFlows(50, 4), d, cost.Linear{Theta: 0.2}, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range bundling.All() {
			curve, err := m.Curve(s, 6)
			if err != nil {
				t.Fatal(err)
			}
			for b := 1; b <= 6; b++ {
				want, err := m.Run(s, b)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(curve[b-1], want) {
					t.Fatalf("%s/%s b=%d: Curve %+v, Run %+v", d.Name(), s.Name(), b, curve[b-1], want)
				}
			}
		}
	}
}

func TestNewMarketDoesNotMutateInput(t *testing.T) {
	flows := syntheticFlows(5, 2)
	before := append([]econ.Flow(nil), flows...)
	_, err := NewMarket(flows, econ.CED{Alpha: 1.1}, cost.Linear{Theta: 0.2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if flows[i] != before[i] {
			t.Fatalf("input flow %d mutated", i)
		}
	}
}

func TestMarketCalibrationInvariant(t *testing.T) {
	// By construction, a single optimally-priced bundle reproduces the
	// blended rate, so its capture is ~0; and n singleton bundles realize
	// MaxProfit, so optimal bundling with b = n has capture ~1.
	for _, d := range []econ.Model{
		econ.CED{Alpha: 1.1},
		econ.Logit{Alpha: 1.1, S0: 0.2},
	} {
		flows := syntheticFlows(40, 3)
		m, err := NewMarket(flows, d, cost.Linear{Theta: 0.2}, 20)
		if err != nil {
			t.Fatal(err)
		}
		if m.GammaClamped {
			t.Fatalf("%s: unexpected clamped calibration", d.Name())
		}
		one, err := m.Run(bundling.Optimal{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(one.Capture) > 1e-6 {
			t.Errorf("%s: capture at b=1 = %v, want ~0", d.Name(), one.Capture)
		}
		if math.Abs(one.Prices[0]-m.P0) > 1e-4*m.P0 {
			t.Errorf("%s: single-bundle price %v, want blended %v", d.Name(), one.Prices[0], m.P0)
		}
		full, err := m.Run(bundling.Optimal{}, len(flows))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(full.Capture-1) > 1e-6 {
			t.Errorf("%s: capture at b=n = %v, want ~1", d.Name(), full.Capture)
		}
	}
}

func TestMarketCaptureMonotoneForOptimal(t *testing.T) {
	for _, d := range []econ.Model{
		econ.CED{Alpha: 1.1},
		econ.Logit{Alpha: 1.1, S0: 0.2},
	} {
		flows := syntheticFlows(60, 7)
		m, err := NewMarket(flows, d, cost.Linear{Theta: 0.2}, 20)
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for b := 1; b <= 6; b++ {
			out, err := m.Run(bundling.Optimal{}, b)
			if err != nil {
				t.Fatal(err)
			}
			if out.Capture < prev-1e-9 {
				t.Fatalf("%s: capture fell at b=%d: %v < %v", d.Name(), b, out.Capture, prev)
			}
			if out.Capture < -1e-9 || out.Capture > 1+1e-9 {
				t.Fatalf("%s: optimal capture out of [0,1]: %v", d.Name(), out.Capture)
			}
			prev = out.Capture
		}
	}
}

func TestPaperHeadlineFewTiersSuffice(t *testing.T) {
	// The paper's headline: 3–4 well-chosen bundles capture 90–95% of the
	// attainable profit. Check that optimal bundling reaches at least 85%
	// by b=4 on heavy-tailed synthetic markets under both models.
	for _, d := range []econ.Model{
		econ.CED{Alpha: 1.1},
		econ.Logit{Alpha: 1.1, S0: 0.2},
	} {
		for seed := int64(0); seed < 3; seed++ {
			flows := syntheticFlows(80, 11+seed)
			m, err := NewMarket(flows, d, cost.Linear{Theta: 0.2}, 20)
			if err != nil {
				t.Fatal(err)
			}
			out, err := m.Run(bundling.Optimal{}, 4)
			if err != nil {
				t.Fatal(err)
			}
			if out.Capture < 0.85 {
				t.Errorf("%s seed %d: optimal capture at b=4 = %v, want ≥ 0.85",
					d.Name(), seed, out.Capture)
			}
		}
	}
}

func TestProfitWeightedNearOptimal(t *testing.T) {
	// §4.2.2: profit-weighted bundling is almost as good as optimal.
	for _, d := range []econ.Model{
		econ.CED{Alpha: 1.1},
		econ.Logit{Alpha: 1.1, S0: 0.2},
	} {
		flows := syntheticFlows(60, 17)
		m, err := NewMarket(flows, d, cost.Linear{Theta: 0.2}, 20)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := m.Run(bundling.Optimal{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := m.Run(bundling.ProfitWeighted{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if pw.Capture < opt.Capture-0.35 {
			t.Errorf("%s: profit-weighted capture %v far below optimal %v",
				d.Name(), pw.Capture, opt.Capture)
		}
	}
}

func TestMarketRegionalAndDestTypeModels(t *testing.T) {
	flows := syntheticFlows(30, 23)
	if _, err := NewMarket(flows, econ.CED{Alpha: 1.1}, cost.Regional{Theta: 1.1}, 20); err != nil {
		t.Fatalf("regional: %v", err)
	}
	split, err := SplitByDestType(flows, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMarket(split, econ.CED{Alpha: 1.1}, cost.DestType{}, 20)
	if err != nil {
		t.Fatalf("desttype: %v", err)
	}
	// With exactly two cost classes, two class-aware bundles should
	// capture (nearly) everything.
	out, err := m.Run(bundling.ClassAware{Inner: bundling.ProfitWeighted{}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Capture < 0.99 {
		t.Errorf("two-class market: capture at b=2 = %v, want ~1", out.Capture)
	}
}

func TestSplitByDestType(t *testing.T) {
	flows := syntheticFlows(10, 29)
	split, err := SplitByDestType(flows, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(split) != 20 {
		t.Fatalf("got %d flows, want 20", len(split))
	}
	var onDemand, total float64
	for _, f := range split {
		total += f.Demand
		if f.OnNet {
			onDemand += f.Demand
		}
	}
	wantTotal := econ.TotalDemand(flows)
	if math.Abs(total-wantTotal) > 1e-9*wantTotal {
		t.Errorf("demand not conserved: %v != %v", total, wantTotal)
	}
	if math.Abs(onDemand/total-0.3) > 1e-9 {
		t.Errorf("on-net share = %v, want 0.3", onDemand/total)
	}
	for _, theta := range []float64{0, 1, -0.5, 2} {
		if _, err := SplitByDestType(flows, theta); err == nil {
			t.Errorf("theta=%v: expected error", theta)
		}
	}
}

func TestMarketLogitClampedCorner(t *testing.T) {
	// P0 below the logit markup floor: calibration clamps, the market is
	// still usable, and the flag is set.
	flows := syntheticFlows(10, 31)
	m, err := NewMarket(flows, econ.Logit{Alpha: 1, S0: 0.04}, cost.Linear{Theta: 0.2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !m.GammaClamped {
		t.Error("expected clamped calibration")
	}
	if _, err := m.Run(bundling.ProfitWeighted{}, 3); err != nil {
		t.Errorf("clamped market should still run: %v", err)
	}
}

func TestOutcomeFieldsPopulated(t *testing.T) {
	flows := syntheticFlows(12, 37)
	m, err := NewMarket(flows, econ.CED{Alpha: 1.3}, cost.Concave{Theta: 0.2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Run(bundling.CostWeighted{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "cost-weighted" || out.Bundles != 3 {
		t.Errorf("outcome metadata wrong: %+v", out)
	}
	if len(out.Partition) == 0 || len(out.Prices) != len(out.Partition) {
		t.Errorf("partition/prices inconsistent: %+v", out)
	}
	if out.Profit <= 0 {
		t.Errorf("profit = %v, want positive", out.Profit)
	}
}

// TestFitterMatchesNewMarket: a Fitter kept across a sequence of flow
// sets — unchanged, demands moved on a few flows, flows added and gone,
// then the same flows permuted and with repeated IDs — fits, bundles and
// prices each exactly as NewMarket does from nothing, under CED (where it
// carries per-flow values over) and logit (where it only reuses buffers),
// and carries its cost order over where the flows let it. Unsorted IDs
// cost it the reuse, never the result.
func TestFitterMatchesNewMarket(t *testing.T) {
	for _, demand := range []econ.Model{econ.CED{Alpha: 1.1}, econ.Logit{Alpha: 1.1, S0: 0.2}} {
		rng := rand.New(rand.NewSource(24))
		flows := syntheticFlows(300, 24)
		for i := range flows {
			flows[i].ID = fmt.Sprintf("f%04d", 2*i)
		}
		var fitter Fitter
		check := func(step string, wantReuse bool, wantOrder string) {
			t.Helper()
			got, err := fitter.Fit(flows, demand, cost.Linear{Theta: 0.2}, 20)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewMarket(flows, demand, cost.Linear{Theta: 0.2}, 20)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Flows, want.Flows) || got.Gamma != want.Gamma || got.GammaClamped != want.GammaClamped ||
				got.OriginalProfit != want.OriginalProfit || got.MaxProfit != want.MaxProfit {
				t.Fatalf("%s, %s: fitter market differs from NewMarket: γ %v/%v, π0 %v/%v, πmax %v/%v",
					demand.Name(), step, got.Gamma, want.Gamma, got.OriginalProfit, want.OriginalProfit, got.MaxProfit, want.MaxProfit)
			}
			for _, s := range []bundling.Strategy{bundling.Optimal{}, bundling.ProfitWeighted{}} {
				g, err := got.Run(s, 4)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want.Run(s, 4)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s, %s, %s: outcome\n got %+v\nwant %+v", demand.Name(), step, s.Name(), g, w)
				}
			}
			if order, merged := got.CostOrder(); wantOrder != "" && order != wantOrder {
				t.Fatalf("%s, %s: cost order %s (%d merged), want %s", demand.Name(), step, order, merged, wantOrder)
			}
			if order, _ := want.CostOrder(); order != "" {
				t.Fatalf("%s, %s: a NewMarket market reports cost order %q", demand.Name(), step, order)
			}
			if ced, ok := got.Demand.(econ.CED); ok {
				if reused, _ := ced.FitStats(); (reused > 0) != wantReuse {
					t.Fatalf("%s: %d of %d flows reused, want reuse = %v", step, reused, len(flows), wantReuse)
				}
			}
		}
		check("first fit", false, "sorted")
		check("unchanged", true, "carried")
		for i := 0; i < 10; i++ {
			flows[rng.Intn(len(flows))].Demand *= 1.5
		}
		check("ten demands moved", true, "")
		flows = append(flows[:40], flows[45:]...)
		flows = slices.Insert(flows, 100, econ.Flow{ID: "f0199", Demand: 3, Distance: 70, Region: econ.RegionNational})
		check("five flows gone, one new", true, "merged")
		flows[7].Distance = 3000
		check("one flow moved", true, "merged")
		slices.Reverse(flows)
		check("IDs descending", true, "") // the walk still pairs the first flow it meets
		rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
		check("IDs shuffled", true, "")
		for i := range flows {
			flows[i].ID = "same"
		}
		check("one ID for every flow", false, "")
		flows[0].Demand, flows[1].Demand = flows[1].Demand, flows[0].Demand
		check("one ID, two demands swapped", true, "")
	}
}
