package bundling

import (
	"math"
	"reflect"
	"testing"

	"tieredpricing/internal/econ"
)

// checkCurve asserts that Curve(s, …, maxB) is, entry by entry, what
// Bundle returns for each b alone.
func checkCurve(t *testing.T, s Strategy, flows []econ.Flow, m econ.Model, maxB int) {
	t.Helper()
	curve, err := Curve(s, flows, m, maxB)
	if err != nil {
		t.Fatalf("%s/%s maxB=%d: %v", m.Name(), s.Name(), maxB, err)
	}
	if len(curve) != maxB {
		t.Fatalf("%s/%s: curve of %d entries for maxB %d", m.Name(), s.Name(), len(curve), maxB)
	}
	for b := 1; b <= maxB; b++ {
		want, err := s.Bundle(flows, m, b)
		if err != nil {
			t.Fatalf("%s/%s b=%d: %v", m.Name(), s.Name(), b, err)
		}
		if !reflect.DeepEqual(curve[b-1], want) {
			t.Fatalf("%s/%s n=%d b=%d:\ncurve  %v\nBundle %v", m.Name(), s.Name(), len(flows), b, curve[b-1], want)
		}
	}
}

// tiedFlows fits n flows, then gives every third the first flow's cost and
// every fourth the middle flow's demand; equal makes every cost one value.
func tiedFlows(t *testing.T, m econ.Model, n int, seed int64, equal bool) []econ.Flow {
	flows := fitFlows(t, m, n, seed, 20)
	for i := range flows {
		if equal || i%3 == 0 {
			flows[i].Cost = flows[0].Cost
		}
		if i%4 == 0 {
			flows[i].Demand = flows[n/2].Demand
		}
	}
	return flows
}

// TestCurveMatchesBundle: for every strategy — the curve-aware ones and the
// per-b fallbacks, Exhaustive included on small markets — under both
// models, on random, tied and all-equal costs and for budgets past n, one
// Curve equals the per-b Bundles.
func TestCurveMatchesBundle(t *testing.T) {
	for _, m := range []econ.Model{econ.CED{Alpha: 1.1}, econ.Logit{Alpha: 1.1, S0: 0.2}} {
		for _, n := range []int{1, 2, 8, 40} {
			strategies := append(All(), Optimal{Quadratic: true})
			if n <= 8 {
				strategies = append(strategies, Exhaustive{})
			}
			for seed := int64(0); seed < 3; seed++ {
				for _, flows := range [][]econ.Flow{
					fitFlows(t, m, n, seed, 20),
					tiedFlows(t, m, n, seed, false),
					tiedFlows(t, m, n, seed, true),
				} {
					for _, s := range strategies {
						checkCurve(t, s, flows, m, n+2)
					}
				}
			}
		}
	}
}

// TestStrategiesRejectNonFiniteFlows: a NaN or infinite demand or cost is
// an error from every strategy and from Curve — it used to pass the
// `<= 0` guards, and cost division then indexed bundle −2⁶³.
func TestStrategiesRejectNonFiniteFlows(t *testing.T) {
	for _, m := range []econ.Model{econ.CED{Alpha: 1.1}, econ.Logit{Alpha: 1.1, S0: 0.2}} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, field := range []string{"demand", "cost"} {
				flows := fitFlows(t, m, 6, 2, 20)
				if field == "demand" {
					flows[3].Demand = bad
				} else {
					flows[3].Cost = bad
				}
				for _, s := range append(All(), Exhaustive{}) {
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s/%s %s=%v: panic %v", m.Name(), s.Name(), field, bad, r)
							}
						}()
						if _, err := s.Bundle(flows, m, 3); err == nil {
							t.Errorf("%s/%s %s=%v: Bundle accepted it", m.Name(), s.Name(), field, bad)
						}
						if _, err := Curve(s, flows, m, 3); err == nil {
							t.Errorf("%s/%s %s=%v: Curve accepted it", m.Name(), s.Name(), field, bad)
						}
					}()
				}
			}
		}
	}
}

// FuzzCurve: over random small markets — byte-valued demands and costs, so
// ties are common — under either model, Curve equals the per-b Bundles
// for every strategy in All and for the quadratic Optimal.
func FuzzCurve(f *testing.F) {
	f.Add([]byte{10, 1, 200, 3, 10, 1, 40, 7, 90, 2, 10, 15}, false, uint8(6))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, true, uint8(9))
	f.Add([]byte{255, 0, 3, 9, 77, 4, 3, 9, 120, 12, 5, 5, 64, 1}, true, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, logit bool, maxB uint8) {
		n := len(data) / 2
		if n == 0 || n > 32 {
			return
		}
		var m econ.Model = econ.CED{Alpha: 1.1}
		if logit {
			m = econ.Logit{Alpha: 1.1, S0: 0.2}
		}
		demands := make([]float64, n)
		rel := make([]float64, n)
		for i := range demands {
			demands[i] = 1 + float64(data[2*i])
			rel[i] = 0.5 + float64(data[2*i+1]%16)
		}
		vals, err := m.FitValuations(demands, 20)
		if err != nil {
			t.Fatal(err)
		}
		gamma, _, err := m.CalibrateScale(vals, rel, 20)
		if err != nil {
			t.Fatal(err)
		}
		flows := make([]econ.Flow, n)
		for i := range flows {
			flows[i] = econ.Flow{ID: "f", Demand: demands[i], Valuation: vals[i], Cost: gamma * rel[i], OnNet: data[2*i]%2 == 0}
		}
		for _, s := range append(All(), Optimal{Quadratic: true}) {
			checkCurve(t, s, flows, m, 1+int(maxB%10))
		}
	})
}
