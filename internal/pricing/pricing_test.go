package pricing

import (
	"math"
	"math/rand"
	"testing"

	"tieredpricing/internal/econ"
)

func fitFlows(t *testing.T, m econ.Model, n int, seed int64, p0 float64) []econ.Flow {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	demands := make([]float64, n)
	rel := make([]float64, n)
	for i := range demands {
		demands[i] = 0.5 + r.Float64()*30
		rel[i] = 0.2 + r.Float64()*8
	}
	vals, err := m.FitValuations(demands, p0)
	if err != nil {
		t.Fatal(err)
	}
	gamma, _, err := m.CalibrateScale(vals, rel, p0)
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]econ.Flow, n)
	for i := range flows {
		flows[i] = econ.Flow{
			ID: "f", Demand: demands[i], Distance: rel[i],
			Valuation: vals[i], Cost: gamma * rel[i],
		}
	}
	return flows
}

func TestEvaluateConsistency(t *testing.T) {
	for _, m := range []econ.Model{
		econ.CED{Alpha: 1.2},
		econ.Logit{Alpha: 1.1, S0: 0.2},
	} {
		flows := fitFlows(t, m, 10, 1, 20)
		parts := [][]int{{0, 1, 2}, {3, 4, 5, 6}, {7, 8, 9}}
		ev, err := Evaluate(m, flows, parts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.Prices) != 3 {
			t.Fatalf("%s: %d prices", m.Name(), len(ev.Prices))
		}
		// Profit must match a direct model evaluation.
		want, err := m.Profit(flows, parts, ev.Prices)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ev.Profit-want) > 1e-9*math.Abs(want) {
			t.Fatalf("%s: profit %v != %v", m.Name(), ev.Profit, want)
		}
	}
}

func TestEvaluateError(t *testing.T) {
	m := econ.CED{Alpha: 1.2}
	flows := fitFlows(t, m, 3, 1, 20)
	if _, err := Evaluate(m, flows, [][]int{{0, 0, 1, 2}}); err == nil {
		t.Error("expected error for invalid partition")
	}
}

func TestCapture(t *testing.T) {
	cases := []struct {
		profit, orig, max, want float64
	}{
		{10, 10, 20, 0},
		{20, 10, 20, 1},
		{15, 10, 20, 0.5},
		{5, 10, 20, -0.5}, // a strategy can underperform the status quo
	}
	for _, c := range cases {
		if got := Capture(c.profit, c.orig, c.max); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Capture(%v,%v,%v) = %v, want %v", c.profit, c.orig, c.max, got, c.want)
		}
	}
	if got := Capture(10, 10, 10); !math.IsNaN(got) {
		t.Errorf("zero headroom should be NaN, got %v", got)
	}
	if got := Capture(10, 20, 10); !math.IsNaN(got) {
		t.Errorf("negative headroom should be NaN, got %v", got)
	}
}
