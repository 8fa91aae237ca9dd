package bundling

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tieredpricing/internal/econ"
)

// fitFlows builds a fitted flow set for strategy tests: random demands and
// distances run through the model's own fitting pipeline so valuations and
// costs are mutually consistent.
func fitFlows(t testing.TB, m econ.Model, n int, seed int64, p0 float64) []econ.Flow {
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
			ID:        "f",
			Demand:    demands[i],
			Distance:  rel[i],
			Valuation: vals[i],
			Cost:      gamma * rel[i],
			OnNet:     i%2 == 0,
		}
	}
	return flows
}

// checkValidPartition asserts p is a disjoint cover of 0..n-1 with at most
// b non-empty blocks.
func checkValidPartition(t *testing.T, n, b int, p [][]int) {
	t.Helper()
	if len(p) == 0 || len(p) > b {
		t.Fatalf("got %d bundles, want 1..%d", len(p), b)
	}
	seen := make([]bool, n)
	for _, block := range p {
		if len(block) == 0 {
			t.Fatalf("empty bundle in %v", p)
		}
		for _, i := range block {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("invalid index %d in %v", i, p)
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("flow %d unassigned in %v", i, p)
		}
	}
}

func allStrategies() []Strategy {
	return []Strategy{
		Optimal{},
		DemandWeighted{},
		CostWeighted{},
		ProfitWeighted{},
		CostDivision{},
		IndexDivision{},
		ClassAware{Inner: ProfitWeighted{}},
	}
}

func TestAllStrategiesReturnValidPartitions(t *testing.T) {
	models := []econ.Model{
		econ.CED{Alpha: 1.1},
		econ.Logit{Alpha: 1.1, S0: 0.2},
	}
	for _, m := range models {
		for seed := int64(0); seed < 5; seed++ {
			flows := fitFlows(t, m, 20, seed, 20)
			for _, s := range allStrategies() {
				for b := 1; b <= 8; b++ {
					p, err := s.Bundle(flows, m, b)
					if err != nil {
						t.Fatalf("%s/%s b=%d: %v", m.Name(), s.Name(), b, err)
					}
					checkValidPartition(t, len(flows), b, p)
				}
			}
		}
	}
}

func TestStrategiesRejectBadInput(t *testing.T) {
	m := econ.CED{Alpha: 2}
	flows := fitFlows(t, m, 4, 1, 20)
	for _, s := range allStrategies() {
		if _, err := s.Bundle(flows, m, 0); err == nil {
			t.Errorf("%s: expected error for b = 0", s.Name())
		}
		if _, err := s.Bundle(nil, m, 2); err == nil {
			t.Errorf("%s: expected error for empty flows", s.Name())
		}
		if _, err := Curve(s, flows, m, 0); err == nil {
			t.Errorf("%s: expected Curve error for maxB = 0", s.Name())
		}
		if _, err := Curve(s, nil, m, 2); err == nil {
			t.Errorf("%s: expected Curve error for empty flows", s.Name())
		}
	}
}

func TestTokenBucketPaperExample(t *testing.T) {
	// §4.2.1: demands 30, 10, 10, 10 into two bundles must yield
	// {30} and {10, 10, 10}.
	p, err := tokenBucket([]float64{30, 10, 10, 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("got %d bundles: %v", len(p), p)
	}
	if len(p[0]) != 1 || p[0][0] != 0 {
		t.Fatalf("bundle 0 = %v, want [0]", p[0])
	}
	if len(p[1]) != 3 {
		t.Fatalf("bundle 1 = %v, want the three small flows", p[1])
	}
}

func TestTokenBucketDeficitCarry(t *testing.T) {
	// One giant flow exhausts several bundle budgets; the carry rule must
	// still leave later bundles usable for the remaining flows.
	p, err := tokenBucket([]float64{97, 1, 1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkFlat := func() []int {
		var all []int
		for _, b := range p {
			all = append(all, b...)
		}
		return all
	}
	if len(checkFlat()) != 4 {
		t.Fatalf("flows lost: %v", p)
	}
	if p[0][0] != 0 || len(p[0]) != 1 {
		t.Fatalf("giant flow should sit alone in bundle 0: %v", p)
	}
}

func TestTokenBucketRejectsNonPositiveWeight(t *testing.T) {
	for _, w := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := tokenBucket([]float64{1, w, 2}, 2); err == nil {
			t.Errorf("expected error for weight %v", w)
		}
	}
	// A subnormal cost passes flow validation but gives cost weighting the
	// weight 1/c = +Inf, which would turn every budget NaN.
	m := econ.CED{Alpha: 1.1}
	flows := fitFlows(t, m, 4, 1, 20)
	flows[2].Cost = 5e-324
	if _, err := (CostWeighted{}).Bundle(flows, m, 2); err == nil {
		t.Error("subnormal cost: cost weighting accepted the weight +Inf")
	}
}

func TestTokenBucketMoreBundlesThanFlows(t *testing.T) {
	p, err := tokenBucket([]float64{5, 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("got %d bundles, want 2", len(p))
	}
}

// refSortIndexesDesc is sortIndexesDesc as a stable sort whose
// comparator leaves ties to the input order.
func refSortIndexesDesc(weights []float64) []int {
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch wa, wb := weights[a], weights[b]; {
		case wa > wb:
			return -1
		case wa < wb:
			return 1
		}
		return 0
	})
	return idx
}

// refBucket is one bucket of the weighting algorithm as a loop that
// appends each flow to its bundle, then drops the empty tail bundles.
func refBucket(weights []float64, b int) [][]int {
	var total float64
	for _, w := range weights {
		total += w
	}
	order := refSortIndexesDesc(weights)
	b = min(b, len(weights))
	budgets := make([]float64, b)
	for j := range budgets {
		budgets[j] = total / float64(b)
	}
	bundles := make([][]int, b)
	j := 0
	for _, i := range order {
		for j < b-1 && len(bundles[j]) > 0 && budgets[j] <= 0 {
			j++
		}
		bundles[j] = append(bundles[j], i)
		budgets[j] -= weights[i]
		if budgets[j] < 0 && j+1 < b {
			budgets[j+1] += budgets[j]
			budgets[j] = 0
			if len(bundles[j]) > 0 {
				j++
			}
		}
	}
	return dropEmpty(bundles)
}

// TestBucketsMatchReference: on random weights with forced ties — every
// third a repeat of an earlier weight, and runs of one value — the
// unstable sort with its index tie-break is the stable sort's
// permutation, and bucket(b), whose bundles are runs of one shared
// order, is the append loop's partition for b = 1..n+1.
func TestBucketsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		w := make([]float64, n)
		for i := range w {
			switch {
			case trial%5 == 0:
				w[i] = 2.5
			case i > 0 && r.Intn(3) == 0:
				w[i] = w[r.Intn(i)]
			default:
				w[i] = 0.1 + r.Float64()*float64(1+r.Intn(100))
			}
		}
		if got, want := sortIndexesDesc(w), refSortIndexesDesc(w); !slices.Equal(got, want) {
			t.Fatalf("weights %v: sorted %v, stable sort %v", w, got, want)
		}
		bucket, err := buckets(w)
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b <= n+1; b++ {
			if got, want := bucket(b), refBucket(w, b); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Fatalf("weights %v, b=%d: bucket %v, append loop %v", w, b, got, want)
			}
		}
	}
}

func TestCostWeightedIsolatesCheapFlows(t *testing.T) {
	// Cheap (local) flows should receive dedicated bundles.
	m := econ.CED{Alpha: 1.5}
	flows := []econ.Flow{
		{ID: "local", Demand: 1, Valuation: 10, Cost: 0.1},
		{ID: "far1", Demand: 1, Valuation: 10, Cost: 10},
		{ID: "far2", Demand: 1, Valuation: 10, Cost: 11},
		{ID: "far3", Demand: 1, Valuation: 10, Cost: 12},
	}
	p, err := CostWeighted{}.Bundle(flows, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p[0]) != 1 || p[0][0] != 0 {
		t.Fatalf("local flow should sit alone in the first bundle: %v", p)
	}
}

func TestCostDivisionPaperExample(t *testing.T) {
	// §4.2.1: most expensive flow costs $10, two bundles ⇒ flows costing
	// $0–4.99 in the first, $5–10 in the second.
	m := econ.CED{Alpha: 2}
	flows := []econ.Flow{
		{ID: "a", Demand: 1, Valuation: 1, Cost: 1},
		{ID: "b", Demand: 1, Valuation: 1, Cost: 4.99},
		{ID: "c", Demand: 1, Valuation: 1, Cost: 5},
		{ID: "d", Demand: 1, Valuation: 1, Cost: 10},
	}
	p, err := CostDivision{}.Bundle(flows, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("got %d bundles: %v", len(p), p)
	}
	if len(p[0]) != 2 || p[0][0] != 0 || p[0][1] != 1 {
		t.Fatalf("low range = %v, want [0 1]", p[0])
	}
	if len(p[1]) != 2 || p[1][0] != 2 || p[1][1] != 3 {
		t.Fatalf("high range = %v, want [2 3]", p[1])
	}
}

func TestCostDivisionDropsEmptyRanges(t *testing.T) {
	// Costs clustered at the top: the low ranges are empty and must be
	// dropped rather than returned as empty bundles.
	m := econ.CED{Alpha: 2}
	flows := []econ.Flow{
		{ID: "a", Demand: 1, Valuation: 1, Cost: 9},
		{ID: "b", Demand: 1, Valuation: 1, Cost: 10},
	}
	p, err := CostDivision{}.Bundle(flows, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkValidPartition(t, 2, 5, p)
}

func TestIndexDivisionEqualCounts(t *testing.T) {
	m := econ.CED{Alpha: 1.2}
	flows := fitFlows(t, m, 12, 7, 20)
	p, err := IndexDivision{}.Bundle(flows, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Fatalf("got %d bundles", len(p))
	}
	for _, block := range p {
		if len(block) != 3 {
			t.Fatalf("unequal counts: %v", p)
		}
	}
	// Blocks must be ordered by ascending cost.
	maxPrev := -1.0
	for _, block := range p {
		for _, i := range block {
			if flows[i].Cost < maxPrev {
				t.Fatalf("index division not rank-ordered: %v", p)
			}
		}
		for _, i := range block {
			if flows[i].Cost > maxPrev {
				maxPrev = flows[i].Cost
			}
		}
	}
}

func TestClassAwareNeverMixesClasses(t *testing.T) {
	for _, m := range []econ.Model{econ.CED{Alpha: 1.1}, econ.Logit{Alpha: 1.1, S0: 0.2}} {
		flows := fitFlows(t, m, 16, 3, 20)
		s := ClassAware{Inner: ProfitWeighted{}}
		for b := 2; b <= 6; b++ {
			p, err := s.Bundle(flows, m, b)
			if err != nil {
				t.Fatal(err)
			}
			checkValidPartition(t, len(flows), b, p)
			for _, block := range p {
				onNet := flows[block[0]].OnNet
				for _, i := range block {
					if flows[i].OnNet != onNet {
						t.Fatalf("%s b=%d: bundle mixes classes: %v", m.Name(), b, block)
					}
				}
			}
		}
	}
}

func TestClassAwareSingleBundleFallsBack(t *testing.T) {
	m := econ.CED{Alpha: 1.1}
	flows := fitFlows(t, m, 8, 9, 20)
	p, err := ClassAware{Inner: ProfitWeighted{}}.Bundle(flows, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || len(p[0]) != 8 {
		t.Fatalf("b=1 should yield one blended bundle: %v", p)
	}
}

func TestClassAwareNilInner(t *testing.T) {
	m := econ.CED{Alpha: 1.1}
	flows := fitFlows(t, m, 4, 9, 20)
	if _, err := (ClassAware{}).Bundle(flows, m, 2); err == nil {
		t.Error("expected error for nil inner strategy")
	}
}

func profitOf(t *testing.T, m econ.Model, flows []econ.Flow, p [][]int) float64 {
	t.Helper()
	prices, err := m.PriceBundles(flows, p)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := m.Profit(flows, p, prices)
	if err != nil {
		t.Fatal(err)
	}
	return pi
}

func TestOptimalDominatesHeuristics(t *testing.T) {
	models := []econ.Model{
		econ.CED{Alpha: 1.1},
		econ.Logit{Alpha: 1.1, S0: 0.2},
	}
	heuristics := []Strategy{
		DemandWeighted{}, CostWeighted{}, ProfitWeighted{},
		CostDivision{}, IndexDivision{},
	}
	for _, m := range models {
		for seed := int64(0); seed < 4; seed++ {
			flows := fitFlows(t, m, 30, seed, 20)
			for b := 1; b <= 6; b++ {
				pOpt, err := Optimal{}.Bundle(flows, m, b)
				if err != nil {
					t.Fatal(err)
				}
				piOpt := profitOf(t, m, flows, pOpt)
				for _, h := range heuristics {
					ph, err := h.Bundle(flows, m, b)
					if err != nil {
						t.Fatal(err)
					}
					pi := profitOf(t, m, flows, ph)
					if pi > piOpt+1e-6*math.Abs(piOpt) {
						t.Fatalf("%s seed %d b=%d: %s profit %v beats optimal %v",
							m.Name(), seed, b, h.Name(), pi, piOpt)
					}
				}
			}
		}
	}
}

func TestOptimalUnsupportedModel(t *testing.T) {
	flows := fitFlows(t, econ.CED{Alpha: 2}, 4, 1, 20)
	if _, err := (Optimal{}).Bundle(flows, fakeModel{}, 2); err == nil {
		t.Error("expected error for unsupported model")
	}
}

// fakeModel is a stub Model used to exercise Optimal's type switch.
type fakeModel struct{ econ.CED }

func (fakeModel) Name() string { return "fake" }

func TestByName(t *testing.T) {
	for _, s := range All() {
		got, err := ByName(s.Name())
		if err != nil {
			t.Errorf("%s: %v", s.Name(), err)
			continue
		}
		if got.Name() != s.Name() {
			t.Errorf("ByName(%q) returned %q", s.Name(), got.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown strategy")
	}
}
