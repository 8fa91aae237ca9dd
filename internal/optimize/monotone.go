package optimize

import (
	"errors"
	"math"
	"sync/atomic"
)

// This file implements the linear-time-per-layer solver of the
// contiguous-partition DP. Both demand models' bundling objectives have
// block values of the form
//
//	val(lo, hi) = W(lo,hi) · g(C(lo,hi))
//
// with W a positive block weight, C the W-weighted mean cost of the block
// over a cost-sorted order, and g strictly convex — the same structure
// that makes an optimal partition contiguous in cost order (DESIGN.md §4).
// That structure additionally satisfies the concave-Monge (inverse
// quadrangle) inequality
//
//	val(a, c) + val(b, d) ≥ val(a, d) + val(b, c)   for a ≤ b ≤ c ≤ d
//
// so in every DP layer best[b][j] = max_i best[b-1][i] + val(i, j) the
// matrix M[j][i] = best[b-1][i] + val(i, j) is totally monotone: if a
// later split i' > i beats i in row j it beats it in every row below, and
// the leftmost row maximum i*(j) is non-decreasing in j. SMAWK (Aggarwal,
// Klawe, Moran, Shor, Wilber 1987) finds every row's leftmost maximum of
// such a matrix in O(rows + columns) entry evaluations, so a layer costs
// O(n) block values instead of the quadratic reference's O(n²).
//
// The matrix is a staircase — split i is only defined for i < j — and the
// undefined entries are read as −Inf. Because they sit to the right of
// every defined entry of their row and the defined region only grows with
// j, padding with −Inf keeps the matrix totally monotone for leftmost
// maxima: a −Inf entry never strictly beats anything, and an entry that
// is −Inf in row j is −Inf in every row above it. Ties resolve to the
// smallest i everywhere (strict > in every comparison), matching the
// quadratic reference DP's ascending inner loop. The property tests
// cross-check this solver against the quadratic reference DP and
// exhaustive set-partition enumeration on the full objective family,
// including degenerate and tie-heavy instances.

// DPScratch holds the flat working tables of ContiguousDPMonotone so that
// repeated solves — the online repricer's periodic ticks, the experiment
// engine's capture curves — allocate nothing but the returned blocks. The
// zero value is ready to use; tables grow on demand and are retained
// between solves. A DPScratch is not safe for concurrent use; use one per
// goroutine or borrow from the package's slots via ContiguousDPMonotone.
type DPScratch struct {
	prev, curr []float64 // rolling DP rows, length n+1
	cut        []int32   // maxBlocks rows × (n+1) cols: row k holds interior layer k's last-block starts
	layerBest  []float64 // column n of layer 0 and of each interior layer
	scanBest   []float64 // column n of a layer by a linear scan
	scanCut    []int32   // that scan's last-block start
	cols       []int32   // SMAWK's surviving-column stacks, one per recursion level
}

// resize fits the tables to an (n, maxBlocks) instance, reusing the
// existing capacity whenever it suffices.
func (s *DPScratch) resize(n, maxBlocks int) {
	rowLen := n + 1
	s.prev = fit(s.prev, rowLen)
	s.curr = fit(s.curr, rowLen)
	s.cut = fit(s.cut, maxBlocks*rowLen)
	s.layerBest = fit(s.layerBest, maxBlocks)
	s.scanBest = fit(s.scanBest, maxBlocks)
	s.scanCut = fit(s.scanCut, maxBlocks)
	// The candidate columns of a layer (≤ n), then one surviving-column
	// stack per recursion level, each at most as long as the level's row
	// count: n + n/2 + n/4 + … < 2n.
	s.cols = fit(s.cols, 3*rowLen)
}

// fit returns buf resliced to n, reallocated with a quarter's headroom
// when too small: a market that gains a flow an epoch must not replace
// every table every epoch.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, n, n+n/4)
	}
	return buf[:n]
}

// dpScratchSlots share scratch across ContiguousDPMonotone callers, in
// the idiom of bundling's power tables: a borrow takes a scratch out of
// any full slot, a return puts it into an empty one or lets it go. A
// sync.Pool would do the same until a GC empties it, which at the
// repricer's allocation rate is about every second re-price of a 20 k-flow
// market, each then re-allocating ≈ 0.9 MB of tables. The slots hold at
// most len(dpScratchSlots) scratches however many solve at once.
var dpScratchSlots [8]atomic.Pointer[DPScratch]

// GetDPScratch borrows a scratch from the package's slots. Pair with
// PutDPScratch when done; callers that solve in a tight loop can instead
// hold one DPScratch for the loop's lifetime.
func GetDPScratch() *DPScratch {
	for i := range dpScratchSlots {
		if dpScratchSlots[i].Load() != nil {
			if s := dpScratchSlots[i].Swap(nil); s != nil {
				return s
			}
		}
	}
	return new(DPScratch)
}

// PutDPScratch returns a scratch to the package's slots.
func PutDPScratch(s *DPScratch) {
	for i := range dpScratchSlots {
		if dpScratchSlots[i].CompareAndSwap(nil, s) {
			return
		}
	}
}

// ContiguousDPMonotone solves the same problem as ContiguousDP — the
// contiguous partition of 0..n-1 into at most maxBlocks non-empty blocks
// maximizing the sum of block values — in O(n·maxBlocks) block-value
// evaluations by SMAWK row maxima, using the package's held scratch tables.
//
// It requires val to satisfy the concave-Monge condition documented above,
// which holds for every objective in this repository (both demand models'
// block values over cost order). For an arbitrary val that violates the
// condition, use the quadratic ContiguousDP; the property tests keep the
// two in agreement on the supported objective family.
func ContiguousDPMonotone(n, maxBlocks int, val BlockValue) ([][2]int, float64, error) {
	s := GetDPScratch()
	defer PutDPScratch(s)
	return s.Solve(n, maxBlocks, val)
}

// Solve runs the SMAWK DP in this scratch's tables. The returned blocks
// are freshly allocated (so they may be retained); every other byte of
// working state lives in the scratch.
func (s *DPScratch) Solve(n, maxBlocks int, val BlockValue) ([][2]int, float64, error) {
	last, err := s.layers(n, maxBlocks, val, false)
	if err != nil {
		return nil, 0, err
	}
	blocks, total := s.choose(n, last)
	return blocks, total, nil
}

// SolveCurve is Solve for every budget up to maxBlocks from one pass over
// the layers: blocks[b-1] and totals[b-1] are what Solve(n, b, val)
// returns, for b = 1..maxBlocks. Beside the layers Solve(n, maxBlocks)
// runs, it scans column n of every layer, not just the last, since that
// scan is where Solve(n, b) ends (DESIGN.md §4).
func (s *DPScratch) SolveCurve(n, maxBlocks int, val BlockValue) ([][][2]int, []float64, error) {
	last, err := s.layers(n, maxBlocks, val, true)
	if err != nil {
		return nil, nil, err
	}
	blocks := make([][][2]int, maxBlocks)
	totals := make([]float64, maxBlocks)
	for b := range blocks {
		blocks[b], totals[b] = s.choose(n, min(b, last))
	}
	return blocks, totals, nil
}

// layers runs the DP for n items and at most maxBlocks blocks and returns
// the last layer's index, min(maxBlocks, n) − 1. Layers 0..last−1 are
// solved for every column (SMAWK past layer 0). Nothing reads the last
// layer but its column n, which a linear scan solves alone; with scanAll
// every layer's column n is scanned too.
func (s *DPScratch) layers(n, maxBlocks int, val BlockValue, scanAll bool) (int, error) {
	if n <= 0 {
		return 0, errors.New("optimize: n must be positive")
	}
	if maxBlocks <= 0 {
		return 0, errors.New("optimize: maxBlocks must be positive")
	}
	last := min(maxBlocks, n) - 1
	if last == 0 {
		s.layerBest = fit(s.layerBest, 1)
		s.layerBest[0] = val(0, n)
		return 0, nil
	}
	s.resize(n, last+1)
	rowLen := n + 1
	negInf := math.Inf(-1)

	// Layer 0: one block over the first j items.
	prev, curr := s.prev, s.curr
	prev[0] = negInf
	for j := 1; j <= n; j++ {
		prev[j] = val(0, j)
	}
	s.layerBest[0] = prev[n]

	for b := 1; b <= last; b++ {
		if scanAll || b == last {
			// Column n by a linear scan, leftmost maximum.
			bi, bv := b, prev[b]+val(b, n)
			for i := b + 1; i < n; i++ {
				if v := prev[i] + val(i, n); v > bv {
					bi, bv = i, v
				}
			}
			s.scanCut[b], s.scanBest[b] = int32(bi), bv
		}
		if b == last {
			break
		}
		// Interior layer: every column, by SMAWK over splits i ∈ [b, n-1]
		// (prev[i] is finite exactly for i ≥ b: b blocks need b items).
		for j := 0; j <= b; j++ {
			curr[j] = negInf // fewer items than blocks: infeasible
		}
		l := layer{val: val, prev: prev, curr: curr, cut: s.cut[b*rowLen : (b+1)*rowLen]}
		cand := s.cols[:n-b]
		for k := range cand {
			cand[k] = int32(b + k)
		}
		l.rowMaxima(b+1, 1, n-b, cand, s.cols[n-b:])
		s.layerBest[b] = curr[n]
		prev, curr = curr, prev
	}
	return last, nil
}

// choose backtracks the partition Solve(n, last+1) returns: the leftmost
// best of layers 0..last−1's column n and layer last's scan (fewer blocks
// win ties), then the interior layers' cut rows down to layer 0.
func (s *DPScratch) choose(n, last int) ([][2]int, float64) {
	k := 0
	for l := 1; l < last; l++ {
		if s.layerBest[l] > s.layerBest[k] {
			k = l
		}
	}
	total, start := s.layerBest[k], -1
	if last > 0 && s.scanBest[last] > total {
		k, total, start = last, s.scanBest[last], int(s.scanCut[last])
	}
	blocks := make([][2]int, k+1)
	j := n
	for ; k > 0; k-- {
		i := start
		if i < 0 {
			i = int(s.cut[k*(n+1)+j])
		}
		start = -1
		blocks[k] = [2]int{i, j}
		j = i
	}
	blocks[0] = [2]int{0, j}
	return blocks, total
}

// layer is one DP layer viewed as the staircase matrix
// M[j][i] = prev[i] + val(i, j) for i < j, −Inf otherwise.
type layer struct {
	val        BlockValue
	prev, curr []float64
	cut        []int32
}

func (l *layer) entry(i int32, j int) float64 {
	if int(i) >= j {
		return math.Inf(-1)
	}
	return l.prev[i] + l.val(int(i), j)
}

// rowMaxima fills curr[j] and cut[j] with the leftmost maximum of row j
// over the candidate columns cols (ascending), for the nr rows
// j0, j0+stride, j0+2·stride, …. free is scratch for the surviving-column
// stacks of this and every deeper recursion level.
func (l *layer) rowMaxima(j0, stride, nr int, cols, free []int32) {
	if nr == 0 {
		return
	}
	// REDUCE: keep at most nr columns. Column kept[t] is known to lose
	// rows 0..t-1 (kept[t-1] is at least as good in row t-1, hence in
	// every row above). A candidate that strictly beats the top of the
	// stack in row len(kept)-1 beats it in every row below too, so the
	// top can never be a leftmost maximum and is popped.
	kept := free[:0]
	for _, c := range cols {
		for len(kept) > 0 {
			j := j0 + (len(kept)-1)*stride
			if int(c) >= j || l.entry(kept[len(kept)-1], j) >= l.entry(c, j) {
				break
			}
			kept = kept[:len(kept)-1]
		}
		if len(kept) < nr {
			kept = append(kept, c)
		}
	}
	// Odd rows recurse on the surviving columns.
	l.rowMaxima(j0+stride, 2*stride, nr/2, kept, free[len(kept):])
	// INTERPOLATE: an even row's leftmost maximum lies between those of
	// its odd neighbours, so one left-to-right pass covers them all.
	p := 0
	for k := 0; k < nr; k += 2 {
		j := j0 + k*stride
		stop := kept[len(kept)-1]
		if k+1 < nr {
			stop = l.cut[j+stride]
		}
		bi, bv := kept[p], l.entry(kept[p], j)
		for kept[p] != stop {
			p++
			if v := l.entry(kept[p], j); v > bv {
				bi, bv = kept[p], v
			}
		}
		l.curr[j], l.cut[j] = bv, bi
	}
}
