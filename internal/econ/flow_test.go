package econ

import (
	"math/rand"
	"strings"
	"testing"
)

func TestRegionString(t *testing.T) {
	cases := map[Region]string{
		RegionMetro:         "metro",
		RegionNational:      "national",
		RegionInternational: "international",
		Region(99):          "region(99)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Region(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestByName(t *testing.T) {
	cases := []struct {
		name string
		want Model
	}{
		{"ced", CED{Alpha: 1.1}},
		{"logit", Logit{Alpha: 1.1, S0: 0.2}},
	}
	for _, c := range cases {
		got, err := ByName(c.name, 1.1, 0.2)
		if err != nil {
			t.Fatalf("ByName(%q): %v", c.name, err)
		}
		if got != c.want || got.Name() != c.name {
			t.Errorf("ByName(%q) = %#v (%q), want %#v", c.name, got, got.Name(), c.want)
		}
	}
	if m, err := ByName("nonesuch", 1.1, 0.2); err == nil || m != nil {
		t.Errorf("ByName(nonesuch) = %v, %v; want nil and an error", m, err)
	} else if !strings.Contains(err.Error(), `"nonesuch"`) {
		t.Errorf("error %q does not name the model", err)
	}
}

func TestFlowValidate(t *testing.T) {
	good := Flow{ID: "a", Demand: 1, Valuation: 2, Cost: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid flow rejected: %v", err)
	}
	cases := []Flow{
		{ID: "q", Demand: 0, Valuation: 1, Cost: 1},
		{ID: "c", Demand: 1, Valuation: 1, Cost: -1},
	}
	for _, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("flow %q should be invalid", f.ID)
		} else if !strings.Contains(err.Error(), f.ID) {
			t.Errorf("error should name the flow: %v", err)
		}
	}
}

func TestValidateFlowsEmpty(t *testing.T) {
	if err := ValidateFlows(nil); err == nil {
		t.Error("expected error for empty slice")
	}
}

func TestTotalDemand(t *testing.T) {
	flows := []Flow{{Demand: 1.5}, {Demand: 2.5}}
	if got := TotalDemand(flows); got != 4 {
		t.Fatalf("TotalDemand = %v, want 4", got)
	}
}

func TestSingletonsAndOneBundle(t *testing.T) {
	s := Singletons(3)
	if len(s) != 3 {
		t.Fatalf("Singletons(3) has %d blocks", len(s))
	}
	for i, b := range s {
		if len(b) != 1 || b[0] != i {
			t.Fatalf("Singletons block %d = %v", i, b)
		}
	}
	o := OneBundle(3)
	if len(o) != 1 || len(o[0]) != 3 {
		t.Fatalf("OneBundle(3) = %v", o)
	}
	if err := checkPartition(3, s); err != nil {
		t.Errorf("Singletons invalid: %v", err)
	}
	if err := checkPartition(3, o); err != nil {
		t.Errorf("OneBundle invalid: %v", err)
	}
}

func TestCheckPartitionRejections(t *testing.T) {
	cases := []struct {
		name string
		n    int
		p    [][]int
	}{
		{"empty block", 2, [][]int{{0, 1}, {}}},
		{"out of range", 2, [][]int{{0, 2}}},
		{"negative", 2, [][]int{{-1, 0, 1}}},
		{"duplicate", 2, [][]int{{0, 0}, {1}}},
		{"uncovered", 3, [][]int{{0, 1}}},
	}
	for _, c := range cases {
		if err := checkPartition(c.n, c.p); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// randomFlows builds n fitted flows with demand, cost and valuation in
// sane positive ranges, for use across econ tests.
func randomFlows(t *testing.T, n int, seed int64, m Model, p0 float64) []Flow {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	demands := make([]float64, n)
	rel := make([]float64, n)
	for i := range demands {
		demands[i] = 0.5 + r.Float64()*20
		rel[i] = 0.1 + r.Float64()*5
	}
	vals, err := m.FitValuations(demands, p0)
	if err != nil {
		t.Fatalf("FitValuations: %v", err)
	}
	gamma, _, err := m.CalibrateScale(vals, rel, p0)
	if err != nil {
		t.Fatalf("CalibrateScale: %v", err)
	}
	flows := make([]Flow, n)
	for i := range flows {
		flows[i] = Flow{
			ID:        "f" + string(rune('a'+i%26)),
			Demand:    demands[i],
			Distance:  rel[i],
			Valuation: vals[i],
			Cost:      gamma * rel[i],
		}
	}
	return flows
}

func TestModelNames(t *testing.T) {
	if (CED{Alpha: 2}).Name() != "ced" {
		t.Error("CED name")
	}
	if (Logit{Alpha: 1, S0: 0.2}).Name() != "logit" {
		t.Error("logit name")
	}
}

func TestCEDOptimalPriceMethod(t *testing.T) {
	m := CED{Alpha: 2}
	if m.OptimalPrice(3) != CEDOptimalPrice(3, 2) {
		t.Error("method and free function disagree")
	}
}

func TestLogitBlendedProfitMatchesOneBundle(t *testing.T) {
	m := Logit{Alpha: 1.1, S0: 0.2}
	flows := randomFlows(t, 5, 77, m, 20)
	got, err := m.BlendedProfit(flows, 20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Profit(flows, OneBundle(5), []float64{20})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("BlendedProfit %v != Profit %v", got, want)
	}
}
