package stats

import "testing"

func TestLinspace(t *testing.T) {
	xs, err := Linspace(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almostEq(xs[i], want[i], 1e-12) {
			t.Fatalf("xs[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	if _, err := Linspace(0, 1, 1); err == nil {
		t.Error("expected error for n = 1")
	}
}
