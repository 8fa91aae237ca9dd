package cost

import (
	"math"
	"testing"

	"tieredpricing/internal/econ"
)

func almostEq(a, b, tol float64) bool {
	return !math.IsNaN(a) && !math.IsNaN(b) && math.Abs(a-b) <= tol
}

func flowsAt(ds ...float64) []econ.Flow {
	out := make([]econ.Flow, len(ds))
	for i, d := range ds {
		out[i] = econ.Flow{ID: "f", Demand: 1, Distance: d}
	}
	return out
}

func TestLinearMatchesPaperExample(t *testing.T) {
	// §3.3 example: distances 1, 10, 100 miles, θ = 0.1 ⇒ base cost is
	// 10 (in γ = $1/mile units) and relative costs are 11, 20, 110.
	m := Linear{Theta: 0.1}
	f, err := m.RelativeCosts(flowsAt(1, 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 20, 110}
	for i := range want {
		if !almostEq(f[i], want[i], 1e-12) {
			t.Errorf("f[%d] = %v, want %v", i, f[i], want[i])
		}
	}
}

func TestLinearZeroThetaIsPureDistance(t *testing.T) {
	m := Linear{Theta: 0}
	f, err := m.RelativeCosts(flowsAt(5, 50))
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 5 || f[1] != 50 {
		t.Fatalf("f = %v, want [5 50]", f)
	}
}

func TestLinearFloorsTinyDistances(t *testing.T) {
	m := Linear{Theta: 0}
	f, err := m.RelativeCosts(flowsAt(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != MinDistance {
		t.Fatalf("zero distance should floor to %v, got %v", MinDistance, f[0])
	}
}

func TestLinearThetaReducesCV(t *testing.T) {
	// Raising the base cost must compress relative cost differences —
	// the mechanism behind the paper's Figure 10 observation that higher
	// θ lowers attainable profit.
	flows := flowsAt(1, 10, 100, 400)
	spread := func(theta float64) float64 {
		f, err := Linear{Theta: theta}.RelativeCosts(flows)
		if err != nil {
			t.Fatal(err)
		}
		min, max := f[0], f[0]
		for _, x := range f {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return max / min
	}
	if !(spread(0.1) > spread(0.3)) {
		t.Fatalf("spread(0.1)=%v should exceed spread(0.3)=%v", spread(0.1), spread(0.3))
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := (Linear{Theta: -1}).RelativeCosts(flowsAt(1)); err == nil {
		t.Error("expected error for negative theta")
	}
	if _, err := (Linear{}).RelativeCosts(nil); err == nil {
		t.Error("expected error for no flows")
	}
}

func TestConcaveUsesPaperDefaults(t *testing.T) {
	m := Concave{Theta: 0}
	a, b, c := m.curve()
	if a != 0.43 || b != 9.43 || c != 0.99 {
		t.Fatalf("defaults = (%v, %v, %v)", a, b, c)
	}
	// At the maximum distance (normalized 1) the curve value is exactly c.
	f, err := m.RelativeCosts(flowsAt(10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f[1], 0.99, 1e-12) {
		t.Fatalf("f(max) = %v, want 0.99", f[1])
	}
	if !(f[0] < f[1]) {
		t.Fatalf("concave cost not increasing: %v", f)
	}
}

func TestConcaveCompressesSpreadVsLinear(t *testing.T) {
	// §4.3.1: the log transform reduces the relative cost difference
	// between local and remote flows compared to the linear model.
	flows := flowsAt(1, 1000)
	lin, err := Linear{Theta: 0}.RelativeCosts(flows)
	if err != nil {
		t.Fatal(err)
	}
	con, err := Concave{Theta: 0}.RelativeCosts(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !(con[1]/con[0] < lin[1]/lin[0]) {
		t.Fatalf("concave ratio %v should be below linear ratio %v",
			con[1]/con[0], lin[1]/lin[0])
	}
}

func TestConcaveClampsToPositive(t *testing.T) {
	m := Concave{Theta: 0}
	// 0.001 of max distance is far below the curve's zero crossing.
	f, err := m.RelativeCosts(flowsAt(0.001*1e6, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if !(f[0] > 0) {
		t.Fatalf("clamped cost = %v, want positive", f[0])
	}
}

func TestConcaveCustomCurveAndErrors(t *testing.T) {
	m := Concave{A: 0.03, B: 1.12, C: 1.01} // the paper's NTT fit
	f, err := m.RelativeCosts(flowsAt(50, 100))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.03*math.Log(0.5)/math.Log(1.12) + 1.01
	if !almostEq(f[0], want, 1e-12) {
		t.Fatalf("f = %v, want %v", f[0], want)
	}
	if _, err := (Concave{A: 1, B: 1, C: 1}).RelativeCosts(flowsAt(1)); err == nil {
		t.Error("expected error for log base 1")
	}
	if _, err := (Concave{Theta: -0.1}).RelativeCosts(flowsAt(1)); err == nil {
		t.Error("expected error for negative theta")
	}
}

func TestRegionalClasses(t *testing.T) {
	flows := []econ.Flow{
		{ID: "m", Demand: 1, Region: econ.RegionMetro},
		{ID: "n", Demand: 1, Region: econ.RegionNational},
		{ID: "i", Demand: 1, Region: econ.RegionInternational},
	}
	// θ = 1: linear cost differences 1, 2, 3 (§3.3).
	f, err := Regional{Theta: 1}.RelativeCosts(flows)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEq(f[i], want[i], 1e-12) {
			t.Errorf("θ=1: f[%d] = %v, want %v", i, f[i], want[i])
		}
	}
	// θ = 0: no cost difference between regions.
	f0, err := Regional{Theta: 0}.RelativeCosts(flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f0 {
		if f0[i] != 1 {
			t.Errorf("θ=0: f[%d] = %v, want 1", i, f0[i])
		}
	}
	// θ = 2: costs differ by magnitudes (1, 4, 9).
	f2, err := Regional{Theta: 2}.RelativeCosts(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f2[2], 9, 1e-12) {
		t.Errorf("θ=2: f[int] = %v, want 9", f2[2])
	}
}

func TestRegionalUnknownRegion(t *testing.T) {
	flows := []econ.Flow{{ID: "x", Region: econ.Region(9)}}
	if _, err := (Regional{Theta: 1}).RelativeCosts(flows); err == nil {
		t.Error("expected error for unknown region")
	}
}

func TestClassifyByDistance(t *testing.T) {
	// Paper thresholds for the EU ISP: <10 metro, <100 national.
	cases := []struct {
		d    float64
		want econ.Region
	}{
		{0, econ.RegionMetro},
		{9.99, econ.RegionMetro},
		{10, econ.RegionNational},
		{99, econ.RegionNational},
		{100, econ.RegionInternational},
		{5000, econ.RegionInternational},
	}
	for _, c := range cases {
		if got := ClassifyByDistance(c.d, 10, 100); got != c.want {
			t.Errorf("ClassifyByDistance(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestDestTypeFactors(t *testing.T) {
	flows := []econ.Flow{
		{ID: "on", Demand: 1, OnNet: true},
		{ID: "off", Demand: 1, OnNet: false},
	}
	f, err := DestType{}.RelativeCosts(flows)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 1 || f[1] != 2 {
		t.Fatalf("f = %v, want [1 2]", f)
	}
	f3, err := DestType{OffNetFactor: 3}.RelativeCosts(flows)
	if err != nil {
		t.Fatal(err)
	}
	if f3[1] != 3 {
		t.Fatalf("custom factor: f = %v, want 3", f3[1])
	}
	if _, err := (DestType{OffNetFactor: -1}).RelativeCosts(flows); err == nil {
		t.Error("expected error for negative factor")
	}
}

func TestAllModelsReturnPositiveCosts(t *testing.T) {
	flows := []econ.Flow{
		{ID: "a", Demand: 1, Distance: 0, Region: econ.RegionMetro, OnNet: true},
		{ID: "b", Demand: 1, Distance: 54, Region: econ.RegionNational},
		{ID: "c", Demand: 1, Distance: 4000, Region: econ.RegionInternational},
	}
	models := []Model{
		Linear{Theta: 0.2}, Linear{Theta: 0},
		Concave{Theta: 0.2}, Concave{Theta: 0},
		Regional{Theta: 1.1}, Regional{Theta: 0},
		DestType{},
	}
	for _, m := range models {
		f, err := m.RelativeCosts(flows)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(f) != len(flows) {
			t.Fatalf("%s: %d costs for %d flows", m.Name(), len(f), len(flows))
		}
		for i, x := range f {
			if !(x > 0) {
				t.Errorf("%s: f[%d] = %v, want positive", m.Name(), i, x)
			}
		}
	}
}
