package optimize

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// These property tests cross-check ContiguousDP against the exact
// set-partition enumerator on small random instances with the objective
// family both demand models reduce to (DESIGN.md §4):
//
//	value(block) = W(block) · g(weighted mean cost of block)
//
// with g strictly convex. For such objectives an optimal partition is
// contiguous in cost order, so the DP over the sorted order must attain
// the exhaustive optimum over ALL set partitions — not just the best
// contiguous one.

// partitionObjective evaluates one instance: weights w > 0, costs c, and
// a convex transform g. It exposes the block value on arbitrary index
// sets (for the enumerator) and on contiguous ranges of a sorted order
// (for the DP).
type partitionObjective struct {
	w, c []float64
	g    func(float64) float64
}

func (o partitionObjective) setValue(block []int) float64 {
	var wSum, cwSum float64
	for _, i := range block {
		wSum += o.w[i]
		cwSum += o.c[i] * o.w[i]
	}
	return wSum * o.g(cwSum/wSum)
}

// costOrder returns indices sorted ascending by cost (ties by index, as
// the bundling package sorts).
func (o partitionObjective) costOrder() []int {
	order := make([]int, len(o.c))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return o.c[order[a]] < o.c[order[b]] })
	return order
}

// solver abstracts over the quadratic reference DP and the SMAWK
// monotone DP so every property test runs both.
type solver struct {
	name  string
	solve func(n, maxBlocks int, val BlockValue) ([][2]int, float64, error)
}

func solvers() []solver {
	return []solver{
		{"quadratic", ContiguousDP},
		{"monotone", ContiguousDPMonotone},
	}
}

// dpSolve solves the instance with the given solver over cost order and
// validates the reported total against the reconstructed blocks.
func (o partitionObjective) dpSolve(t *testing.T, s solver, maxBlocks int) ([][2]int, float64) {
	t.Helper()
	order := o.costOrder()
	val := func(lo, hi int) float64 {
		return o.setValue(order[lo:hi])
	}
	blocks, total, err := s.solve(len(o.w), maxBlocks, val)
	if err != nil {
		t.Fatal(err)
	}
	// The reported total must equal the sum of the reconstructed blocks,
	// and the blocks must tile [0, n) in order.
	var check float64
	prev := 0
	for _, b := range blocks {
		if b[0] != prev || b[1] <= b[0] {
			t.Fatalf("%s: blocks %v do not tile [0,%d)", s.name, blocks, len(o.w))
		}
		prev = b[1]
		check += o.setValue(order[b[0]:b[1]])
	}
	if prev != len(o.w) {
		t.Fatalf("%s: blocks %v do not cover [0,%d)", s.name, blocks, len(o.w))
	}
	if math.Abs(check-total) > 1e-9*(1+math.Abs(total)) {
		t.Fatalf("%s: DP total %v does not match reconstructed blocks' value %v", s.name, total, check)
	}
	return blocks, total
}

// dpBest solves the instance with the quadratic reference DP over cost
// order (the historical oracle the exhaustive checks compare against).
func (o partitionObjective) dpBest(t *testing.T, maxBlocks int) float64 {
	t.Helper()
	_, total := o.dpSolve(t, solvers()[0], maxBlocks)
	return total
}

// exhaustiveBest enumerates every set partition into at most maxBlocks
// blocks and returns the best objective value.
func (o partitionObjective) exhaustiveBest(t *testing.T, maxBlocks int) float64 {
	t.Helper()
	best := math.Inf(-1)
	err := EnumeratePartitions(len(o.w), maxBlocks, func(p [][]int) bool {
		var total float64
		for _, block := range p {
			total += o.setValue(block)
		}
		if total > best {
			best = total
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return best
}

// convexTransforms mirrors the two demand models' g: CED's C^{1−α}
// (α > 1) and logit's e^{−αC}, plus a plain quadratic.
var convexTransforms = []struct {
	name string
	g    func(float64) float64
}{
	{"ced-like pow", func(x float64) float64 { return math.Pow(x, -0.5) }},
	{"logit-like exp", func(x float64) float64 { return math.Exp(-1.1 * x) }},
	{"quadratic", func(x float64) float64 { return x * x }},
}

func checkDPMatchesExhaustive(t *testing.T, o partitionObjective, maxBlocks int) {
	t.Helper()
	ex := o.exhaustiveBest(t, maxBlocks)
	tol := 1e-9 * (1 + math.Abs(ex))
	for _, s := range solvers() {
		_, dp := o.dpSolve(t, s, maxBlocks)
		// The DP searches a subset of the enumerator's space, so it can
		// never exceed the exhaustive optimum; convexity says it must
		// reach it.
		if dp > ex+tol {
			t.Fatalf("%s: DP total %v exceeds exhaustive optimum %v (enumerator broken)", s.name, dp, ex)
		}
		if dp < ex-tol {
			t.Fatalf("%s: DP total %v below exhaustive optimum %v (contiguity violated)", s.name, dp, ex)
		}
	}
	checkSolversAgree(t, o, maxBlocks)
}

// checkSolversAgree runs both solvers on the instance and asserts equal
// totals; when the optimum is unique among all set partitions (determined
// by enumeration), the two solvers must return the *identical* partition,
// not merely equal values.
func checkSolversAgree(t *testing.T, o partitionObjective, maxBlocks int) {
	t.Helper()
	quadBlocks, quadTotal := o.dpSolve(t, solvers()[0], maxBlocks)
	monoBlocks, monoTotal := o.dpSolve(t, solvers()[1], maxBlocks)
	tol := 1e-9 * (1 + math.Abs(quadTotal))
	if math.Abs(quadTotal-monoTotal) > tol {
		t.Fatalf("solver totals differ: quadratic %v, monotone %v", quadTotal, monoTotal)
	}
	if len(o.w) > 12 {
		return // uniqueness check needs the enumerator
	}
	// Count optima within tolerance; only a unique optimum pins the blocks.
	best := o.exhaustiveBest(t, maxBlocks)
	optima := 0
	if err := EnumeratePartitions(len(o.w), maxBlocks, func(p [][]int) bool {
		var total float64
		for _, block := range p {
			total += o.setValue(block)
		}
		if total >= best-tol {
			optima++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if optima != 1 {
		return
	}
	if len(quadBlocks) != len(monoBlocks) {
		t.Fatalf("unique optimum, but solvers return different partitions: quadratic %v, monotone %v",
			quadBlocks, monoBlocks)
	}
	for k := range quadBlocks {
		if quadBlocks[k] != monoBlocks[k] {
			t.Fatalf("unique optimum, but solvers return different partitions: quadratic %v, monotone %v",
				quadBlocks, monoBlocks)
		}
	}
}

// TestContiguousDPMatchesExhaustiveRandom: randomized instances, n ≤ 9,
// every convex transform, several block budgets.
func TestContiguousDPMatchesExhaustiveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(8) // 2..9
		o := partitionObjective{
			w: make([]float64, n),
			c: make([]float64, n),
		}
		for i := 0; i < n; i++ {
			o.w[i] = 0.1 + r.Float64()*5
			o.c[i] = 0.05 + r.Float64()*10
		}
		if trial%5 == 0 {
			// Duplicate a cost to exercise tie-breaking.
			o.c[r.Intn(n)] = o.c[0]
		}
		tr := convexTransforms[trial%len(convexTransforms)]
		o.g = tr.g
		for _, maxBlocks := range []int{1, 2, 3, n, n + 3} {
			checkDPMatchesExhaustive(t, o, maxBlocks)
		}
	}
}

// TestContiguousDPDegenerateAllEqualCosts: with all costs equal, every
// partition has the same objective W_total·g(c), so the DP must agree
// with the enumerator trivially — a regression guard for tie handling.
func TestContiguousDPDegenerateAllEqualCosts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tr := range convexTransforms {
		n := 6
		o := partitionObjective{w: make([]float64, n), c: make([]float64, n), g: tr.g}
		for i := 0; i < n; i++ {
			o.w[i] = 0.5 + r.Float64()
			o.c[i] = 2.5
		}
		checkDPMatchesExhaustive(t, o, 3)
		// And the value is what the closed form says.
		var wSum float64
		for _, w := range o.w {
			wSum += w
		}
		want := wSum * tr.g(2.5)
		got := o.dpBest(t, 3)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s: all-equal-cost total %v, want %v", tr.name, got, want)
		}
	}
}

// TestContiguousDPDegenerateMaxBlocksExceedsN: maxBlocks far above n
// must behave exactly like maxBlocks = n for both searchers.
func TestContiguousDPDegenerateMaxBlocksExceedsN(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 5
	o := partitionObjective{w: make([]float64, n), c: make([]float64, n),
		g: func(x float64) float64 { return x * x }}
	for i := 0; i < n; i++ {
		o.w[i] = 0.2 + r.Float64()
		o.c[i] = r.Float64() * 4
	}
	capped := o.dpBest(t, n)
	uncapped := o.dpBest(t, 100)
	if capped != uncapped {
		t.Errorf("maxBlocks=n gives %v, maxBlocks>n gives %v", capped, uncapped)
	}
	checkDPMatchesExhaustive(t, o, 100)
}

// TestContiguousDPDegenerateSingleFlow: one flow, any budget — one block,
// value g(c)·w.
func TestContiguousDPDegenerateSingleFlow(t *testing.T) {
	o := partitionObjective{w: []float64{3}, c: []float64{1.5},
		g: func(x float64) float64 { return math.Exp(-x) }}
	for _, maxBlocks := range []int{1, 2, 6} {
		checkDPMatchesExhaustive(t, o, maxBlocks)
		want := 3 * math.Exp(-1.5)
		if got := o.dpBest(t, maxBlocks); math.Abs(got-want) > 1e-12 {
			t.Errorf("maxBlocks=%d: total %v, want %v", maxBlocks, got, want)
		}
	}
}

// TestContiguousDPMonotoneMatchesQuadraticRandom cross-checks the SMAWK
// solver against the quadratic reference on instances far larger than
// the enumerator can handle, across the full convex transform family,
// with duplicated costs mixed in to exercise ties. Budgets 1 and 2 are
// the ones where the last-layer shortcut is layer 0 and the first
// interior layer; n−1 and above leave every layer but the shortcut a
// near-diagonal staircase.
func TestContiguousDPMonotoneMatchesQuadraticRandom(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		n := 10 + r.Intn(70)
		o := partitionObjective{
			w: make([]float64, n),
			c: make([]float64, n),
		}
		for i := 0; i < n; i++ {
			o.w[i] = 0.1 + r.Float64()*5
			o.c[i] = 0.05 + r.Float64()*10
		}
		if trial%4 == 0 {
			// Duplicate a run of costs to exercise tie-breaking at scale.
			dup := o.c[r.Intn(n)]
			for k := 0; k < n/4; k++ {
				o.c[r.Intn(n)] = dup
			}
		}
		o.g = convexTransforms[trial%len(convexTransforms)].g
		for _, maxBlocks := range []int{1, 2, 3, 5, 8, n - 1, n, n + 2} {
			checkSolversAgree(t, o, maxBlocks)
		}
	}
}

// TestContiguousDPMonotoneTieRuns: costs drawn from a handful of values,
// so cost order is a few long runs of exact ties (and, with one value,
// every partition is optimal). Inside a run the block values differ only
// by rounding, which is where a solver leaning on monotone argmaxes is
// most exposed; the totals must still match the quadratic reference.
func TestContiguousDPMonotoneTieRuns(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 24; trial++ {
		n := 20 + r.Intn(60)
		levels := []float64{0.5, 2.5, 2.5000000000000004, 7}[:1+trial%4]
		o := partitionObjective{
			w: make([]float64, n),
			c: make([]float64, n),
			g: convexTransforms[trial%len(convexTransforms)].g,
		}
		for i := 0; i < n; i++ {
			o.w[i] = 0.1 + r.Float64()*5
			o.c[i] = levels[r.Intn(len(levels))]
		}
		for _, maxBlocks := range []int{1, 2, 3, 4, 7, n - 1, n, n + 5} {
			checkSolversAgree(t, o, maxBlocks)
		}
	}
}

// exactTieVal is a block value whose arithmetic is exact — minus the
// square of the block's integer sum, a concave-Monge function that makes
// the DP balance block sums — so equal candidates are equal to the bit
// and the leftmost-argmax rule alone decides between them. Zeros make the
// Monge inequality an equality over whole ranges of splits.
func exactTieVal(x []int) BlockValue {
	pref := make([]float64, len(x)+1)
	for i, v := range x {
		pref[i+1] = pref[i] + float64(v)
	}
	return func(lo, hi int) float64 {
		s := pref[hi] - pref[lo]
		return -s * s
	}
}

// TestContiguousDPMonotoneExactTies pins the tie rule: when candidate
// splits tie exactly, SMAWK must return the quadratic reference's
// partition — the smallest split in every row — not merely its total.
func TestContiguousDPMonotoneExactTies(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(150)
		x := make([]int, n)
		switch trial % 3 {
		case 0: // all equal: every row is one long tie
			for i := range x {
				x[i] = 3
			}
		case 1: // long zero runs between a few equal weights
			for i := range x {
				if r.Intn(8) == 0 {
					x[i] = 2
				}
			}
		default: // small integers, many repeated
			for i := range x {
				x[i] = r.Intn(4)
			}
		}
		val := exactTieVal(x)
		for _, maxBlocks := range []int{1, 2, 3, 4, 9, n - 1, n, n + 1} {
			if maxBlocks < 1 {
				continue
			}
			want, wantTotal, err := ContiguousDP(n, maxBlocks, val)
			if err != nil {
				t.Fatal(err)
			}
			got, gotTotal, err := ContiguousDPMonotone(n, maxBlocks, val)
			if err != nil {
				t.Fatal(err)
			}
			if gotTotal != wantTotal || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d n=%d maxBlocks=%d x=%v:\nSMAWK     %v total %v\nquadratic %v total %v",
					trial, n, maxBlocks, x, got, gotTotal, want, wantTotal)
			}
		}
	}
}

// checkCurve solves every budget 1..maxBlocks at once and asserts each
// entry is, bit for bit, what Solve returns for that budget alone — and,
// where exact says the quadratic reference must agree to the bit (exact
// ties, or no ties at all), what ContiguousDP returns; elsewhere its total
// within rounding.
func checkCurve(t *testing.T, n, maxBlocks int, val BlockValue, exact bool) {
	t.Helper()
	s := new(DPScratch)
	curve, totals, err := s.SolveCurve(n, maxBlocks, val)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != maxBlocks || len(totals) != maxBlocks {
		t.Fatalf("n=%d: curve of %d entries and %d totals for maxBlocks %d", n, len(curve), len(totals), maxBlocks)
	}
	for b := 1; b <= maxBlocks; b++ {
		want, wantTotal, err := new(DPScratch).Solve(n, b, val)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(curve[b-1], want) || totals[b-1] != wantTotal {
			t.Fatalf("n=%d b=%d: curve %v total %v, Solve %v total %v", n, b, curve[b-1], totals[b-1], want, wantTotal)
		}
		quad, quadTotal, err := ContiguousDP(n, b, val)
		if err != nil {
			t.Fatal(err)
		}
		if exact && !reflect.DeepEqual(curve[b-1], quad) {
			t.Fatalf("n=%d b=%d: curve %v, quadratic %v", n, b, curve[b-1], quad)
		}
		if math.Abs(totals[b-1]-quadTotal) > 1e-9*(1+math.Abs(quadTotal)) {
			t.Fatalf("n=%d b=%d: curve total %v, quadratic %v", n, b, totals[b-1], quadTotal)
		}
	}
}

// TestSolveCurveMatchesSolve: one SolveCurve equals the per-budget solves
// on random costs, on long runs of tied costs (where SMAWK's column n and
// the linear scan's can round to different leftmost maxima) and on exact
// ties, for budgets past n.
func TestSolveCurveMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 90; trial++ {
		n := 1 + r.Intn(90)
		switch trial % 3 {
		case 0, 1:
			o := partitionObjective{w: make([]float64, n), c: make([]float64, n),
				g: convexTransforms[trial%len(convexTransforms)].g}
			levels := []float64{0.5, 2.5, 2.5000000000000004, 7}[:1+trial%4]
			for i := range o.w {
				o.w[i] = 0.1 + r.Float64()*5
				o.c[i] = 0.05 + r.Float64()*10
				if trial%3 == 1 {
					o.c[i] = levels[r.Intn(len(levels))]
				}
			}
			order := o.costOrder()
			checkCurve(t, n, min(n+2, 9), func(lo, hi int) float64 { return o.setValue(order[lo:hi]) }, trial%3 == 0 && n <= 12)
		default:
			x := make([]int, n)
			for i := range x {
				x[i] = r.Intn(4)
			}
			checkCurve(t, n, min(n+2, 9), exactTieVal(x), true)
		}
	}
}

// TestSolveValCallBudget pins the solver's cost as a count, which repeats
// exactly where a timing does not: at the online repricer's scale the
// SMAWK layers plus the last-layer shortcut stay under 20 block values
// per item (the divide-and-conquer solver this replaced made 903 216
// calls on an instance of this size).
func TestSolveValCallBudget(t *testing.T) {
	const n, maxBlocks, budget = 20000, 4, 400000
	inner := benchVal(n, 7)
	calls := 0
	val := func(lo, hi int) float64 {
		calls++
		return inner(lo, hi)
	}
	if _, _, err := ContiguousDPMonotone(n, maxBlocks, val); err != nil {
		t.Fatal(err)
	}
	if calls > budget {
		t.Fatalf("Solve(n=%d, B=%d) made %d block-value calls, budget %d", n, maxBlocks, calls, budget)
	}
	t.Logf("Solve(n=%d, B=%d): %d block-value calls", n, maxBlocks, calls)
}

// TestContiguousDPUnderflowedWeights mimics the logit block value when
// every member of a block has underflowed weight e^{α(v−vmax)} → 0 (the
// bundling package returns block value 0 for such blocks): zero-weight
// items must not derail either solver, and the two must agree on the
// total.
func TestContiguousDPUnderflowedWeights(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := 60
	w := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		c[i] = float64(i) * 0.7 // already cost-sorted
		if i%2 == 0 && (i < 20 || i >= 45) {
			w[i] = 0.2 + r.Float64() // survivor
		} // the rest — odd items, and one long run — underflowed to exactly 0
	}
	val := func(lo, hi int) float64 {
		var wSum, cwSum float64
		for i := lo; i < hi; i++ {
			wSum += w[i]
			cwSum += c[i] * w[i]
		}
		if wSum <= 0 {
			return 0 // the whole block underflowed; it attracts no demand
		}
		return wSum * math.Exp(-1.1*(cwSum/wSum))
	}
	for _, maxBlocks := range []int{1, 2, 3, 6, n, n + 5} {
		var totals []float64
		for _, s := range solvers() {
			blocks, total, err := s.solve(n, maxBlocks, val)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(total, 0) || math.IsNaN(total) {
				t.Fatalf("%s maxBlocks=%d: non-finite total %v", s.name, maxBlocks, total)
			}
			prev := 0
			for _, b := range blocks {
				if b[0] != prev || b[1] <= b[0] {
					t.Fatalf("%s maxBlocks=%d: blocks %v do not tile [0,%d)", s.name, maxBlocks, blocks, n)
				}
				prev = b[1]
			}
			if prev != n {
				t.Fatalf("%s maxBlocks=%d: blocks %v do not cover [0,%d)", s.name, maxBlocks, blocks, n)
			}
			totals = append(totals, total)
		}
		if math.Abs(totals[0]-totals[1]) > 1e-9*(1+math.Abs(totals[0])) {
			t.Fatalf("maxBlocks=%d: quadratic total %v != monotone total %v", maxBlocks, totals[0], totals[1])
		}
	}
}

// TestDPScratchReuse solves instances of varying size through one scratch
// to verify the tables resize correctly and results match fresh solves.
func TestDPScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := GetDPScratch()
	defer PutDPScratch(s)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(40)
		maxBlocks := 1 + r.Intn(8)
		o := partitionObjective{
			w: make([]float64, n),
			c: make([]float64, n),
			g: convexTransforms[trial%len(convexTransforms)].g,
		}
		for i := 0; i < n; i++ {
			o.w[i] = 0.1 + r.Float64()
			o.c[i] = 0.1 + r.Float64()*5
		}
		order := o.costOrder()
		val := func(lo, hi int) float64 { return o.setValue(order[lo:hi]) }
		gotBlocks, gotTotal, err := s.Solve(n, maxBlocks, val)
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks, wantTotal, err := ContiguousDPMonotone(n, maxBlocks, val)
		if err != nil {
			t.Fatal(err)
		}
		if gotTotal != wantTotal || len(gotBlocks) != len(wantBlocks) {
			t.Fatalf("reused scratch: total %v blocks %v, fresh solve: total %v blocks %v",
				gotTotal, gotBlocks, wantTotal, wantBlocks)
		}
		for k := range gotBlocks {
			if gotBlocks[k] != wantBlocks[k] {
				t.Fatalf("reused scratch blocks %v != fresh blocks %v", gotBlocks, wantBlocks)
			}
		}
	}
	// A warm scratch allocates nothing but the blocks it returns: the
	// SMAWK column stacks live in the scratch like the DP rows do.
	val := benchVal(500, 3)
	if _, _, err := s.Solve(500, 6, val); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := s.Solve(500, 6, val); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("Solve on a warm scratch made %v allocations, want only the returned blocks", allocs)
	}
}

// TestDPScratchSurvivesGrowthAndGC: a market that gains a flow per solve,
// with collections in between, keeps its held tables — each solve
// allocates the blocks it returns and nothing else. Re-allocated tables
// cost at least four objects a solve, so the bound — two a solve — leaves
// room for the few the runtime allocates beside the test under -race.
func TestDPScratchSurvivesGrowthAndGC(t *testing.T) {
	const n, solves = 1000, 51
	if _, _, err := ContiguousDPMonotone(n, 4, benchVal(n, 9)); err != nil {
		t.Fatal(err)
	}
	var objects uint64
	for m := n; m < n+solves; m++ {
		val := benchVal(m, int64(m))
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, _, err := ContiguousDPMonotone(m, 4, val); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		objects += m1.Mallocs - m0.Mallocs
	}
	if objects > 2*solves {
		t.Fatalf("%d solves at n=%d…%d, each after a GC, made %d allocations, want about the %d returned block lists",
			solves, n, n+solves-1, objects, solves)
	}
}
