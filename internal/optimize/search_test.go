package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The two block terms of the bundling objectives, re-stated here so the
// walk is tested against the shapes it serves (a capped power and a
// guarded exponential) without importing the package that defines them.
func testTerms(n int) map[string]func(w, cw float64) float64 {
	limit := math.MaxFloat64 / float64(n+1)
	return map[string]func(w, cw float64) float64{
		"pow": func(w, cw float64) float64 {
			v := 3 * w * math.Pow(cw/w, -0.4)
			if v > limit || math.IsNaN(v) {
				return limit
			}
			return v
		},
		"exp": func(w, cw float64) float64 {
			if w <= 0 {
				return 0
			}
			return w * math.Exp(-1.1*(cw/w))
		},
	}
}

// searchOracle is the search the walk replaces: every partition from
// EnumeratePartitions, each block summed and valued from scratch.
func searchOracle(t *testing.T, w, cw []float64, maxBlocks int, g func(w, cw float64) float64) (parts [][][]int, totals []float64, best float64) {
	t.Helper()
	best = math.Inf(-1)
	err := EnumeratePartitions(len(w), maxBlocks, func(p [][]int) bool {
		var total float64
		for _, block := range p {
			var sw, scw float64
			for _, i := range block {
				sw += w[i]
				scw += cw[i]
			}
			total += g(sw, scw)
		}
		parts, totals = append(parts, p), append(totals, total)
		best = math.Max(best, total)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return parts, totals, best
}

// searchItems draws n items in one of the shapes that stress ties and
// guards: plain, runs of equal cost, all identical, a zero-cost item (the
// capped-power path), weights that underflowed to zero.
func searchItems(r *rand.Rand, n int, shape string) (w, cw []float64) {
	w, cw = make([]float64, n), make([]float64, n)
	for i := range w {
		w[i] = 0.1 + r.Float64()*5
		c := 0.2 + r.Float64()*8
		switch shape {
		case "equal-cost-runs":
			c = float64(1 + i/3)
		case "identical":
			w[i], c = 1.5, 2.25
		case "zero-cost":
			if i == 0 {
				c = 0
			}
		case "underflow":
			if i%2 == 1 {
				w[i] = 0
			}
		}
		cw[i] = c * w[i]
	}
	return w, cw
}

var searchShapes = []string{"plain", "equal-cost-runs", "identical", "zero-cost", "underflow"}

// TestSearchPartitionsMatchesEnumeration: on every shape, n ∈ 1..9 and
// B ∈ {1, 2, 4, n, n+2}, the walk visits CountPartitions leaves and
// shortlists exactly the partitions whose from-scratch total is within
// ShortlistSlack of the from-scratch best — same partitions, same order,
// the first of them the enumeration's first maximum on exact ties.
func TestSearchPartitionsMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, shape := range searchShapes {
		for n := 1; n <= 9; n++ {
			w, cw := searchItems(r, n, shape)
			for _, maxBlocks := range []int{1, 2, 4, n, n + 2} {
				for name, g := range testTerms(n) {
					id := fmt.Sprintf("%s/%s/n=%d/B=%d", shape, name, n, maxBlocks)
					parts, totals, best := searchOracle(t, w, cw, maxBlocks, g)
					got, leaves, err := SearchPartitions(w, cw, maxBlocks, g)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					want, _ := CountPartitions(n, maxBlocks)
					if leaves != want || int(leaves) != len(parts) {
						t.Fatalf("%s: %d leaves, want %d (enumerated %d)", id, leaves, want, len(parts))
					}
					var wantParts [][][]int
					for k, total := range totals {
						if total >= best-ShortlistSlack*math.Abs(best) {
							wantParts = append(wantParts, parts[k])
						}
					}
					if len(got) != len(wantParts) || len(got) == 0 {
						t.Fatalf("%s: shortlist of %d, want %d", id, len(got), len(wantParts))
					}
					for k, p := range got {
						if !slices.EqualFunc(p, wantParts[k], slices.Equal[[]int]) {
							t.Fatalf("%s: shortlist[%d] = %v, want %v", id, k, p, wantParts[k])
						}
					}
				}
			}
		}
	}
}

// TestSearchPartitionsWorkPin pins the search's work as counts, not
// times: at (n, B) = (10, 4) — ablation1's shape — one g per non-empty
// subset of the items, 1 023 of them (2¹⁰ − 1; a node's g was 58 769
// calls before the memo, one per ≤4-block prefix), for 43 947 partitions,
// and allocations that do not scale with either: the memo, the block
// sets, the walk's closure, a shortlist of one. A second search of the
// same items returns the same thing — the way back restored every block
// set, or the from-scratch oracle above would disagree too.
func TestSearchPartitionsWorkPin(t *testing.T) {
	w, cw := searchItems(rand.New(rand.NewSource(1)), 10, "plain")
	evals := 0
	term := testTerms(10)["exp"]
	g := func(sw, scw float64) float64 { evals++; return term(sw, scw) }
	first, leaves, err := SearchPartitions(w, cw, 4, g)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 1023 || leaves != 43947 || len(first) != 1 {
		t.Fatalf("%d g evaluations over %d partitions, shortlist of %d; want 1023 over 43947, shortlist of 1",
			evals, leaves, len(first))
	}
	if again, _, _ := SearchPartitions(w, cw, 4, g); !reflect.DeepEqual(again, first) {
		t.Fatalf("second search returned %v, first %v", again, first)
	}
	if allocs := testing.AllocsPerRun(5, func() { SearchPartitions(w, cw, 4, g) }); allocs > 40 {
		t.Fatalf("%v allocations per search of 43947 partitions, want a few dozen at most (0 per partition)", allocs)
	}
}

func TestSearchPartitionsGuards(t *testing.T) {
	g := func(w, cw float64) float64 { return w }
	one := []float64{1}
	for name, c := range map[string]struct {
		w, cw []float64
		b     int
	}{
		"no items":          {nil, nil, 2},
		"length mismatch":   {one, []float64{1, 2}, 2},
		"no blocks":         {one, one, 0},
		"too many to visit": {make([]float64, 21), make([]float64, 21), 2},
	} {
		if _, _, err := SearchPartitions(c.w, c.cw, c.b, g); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// A NaN objective shortlists nothing rather than something arbitrary.
	got, leaves, err := SearchPartitions(one, one, 1, func(w, cw float64) float64 { return math.NaN() })
	if err != nil || leaves != 1 || len(got) != 0 {
		t.Fatalf("NaN objective: shortlist %v, %d leaves, err %v", got, leaves, err)
	}
}
