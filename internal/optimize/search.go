package optimize

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ShortlistSlack is how far, relatively, a screened total may fall below
// the best and still be shortlisted. Screening carries ≈ 1e-15 of rounding,
// so re-scoring the shortlist exactly cannot miss the exact optimum.
const ShortlistSlack = 1e-9

// SearchPartitions is the exhaustive counterpart of ContiguousDP for
// objectives of the form Σ_blocks g(Σw_i, Σcw_i) — their subset-sum view,
// where the DP uses prefix sums. It walks every set partition of the
// items into at most maxBlocks blocks depth-first, in EnumeratePartitions'
// order. The walk adds items to a block in increasing index order, so a
// block's sums are always the same left fold over the same subset: g is
// evaluated once per non-empty subset up front (2ⁿ − 1 calls, 24·2ⁿ bytes
// of memo), extending each subset's fold by its highest item, and placing
// item i in block b costs an OR and a load. A leaf adds its block values
// in block order, bit-for-bit what summing g over the finished partition
// yields; nothing is allocated per partition. It returns, in that order
// and laid out as EnumeratePartitions yields them, the partitions within
// ShortlistSlack of the best total, and how many it visited:
// CountPartitions(n, maxBlocks).
func SearchPartitions(w, cw []float64, maxBlocks int, g func(sumW, sumCW float64) float64) ([][][]int, int64, error) {
	n := len(w)
	if n == 0 || len(cw) != n || maxBlocks <= 0 {
		return nil, 0, errors.New("optimize: search needs items, one weight pair each, and a positive maxBlocks")
	}
	if n > 20 {
		return nil, 0, fmt.Errorf("optimize: refusing to enumerate partitions of %d > 20 items", n)
	}
	maxBlocks = min(maxBlocks, n)
	// Σw, Σcw and g of every subset m, folded in increasing item order:
	// m is m without its highest item i, plus item i.
	memo := make([]struct{ w, cw, val float64 }, 1<<n)
	for m := 1; m < len(memo); m++ {
		i := bits.Len(uint(m)) - 1
		e, rest := &memo[m], memo[m&^(1<<i)]
		e.w, e.cw = rest.w+w[i], rest.cw+cw[i]
		e.val = g(e.w, e.cw)
	}
	// Per-block item set and g of it; the current restricted-growth
	// string; the shortlisted strings (n bytes each) and their totals.
	set, val := make([]int, maxBlocks), make([]float64, maxBlocks)
	rgs := make([]uint8, n)
	var cand []uint8
	var candTotal []float64
	best, leaves := math.Inf(-1), int64(0)
	var walk func(i, used int) // places items i.., blocks 0..used-1 being non-empty
	walk = func(i, used int) {
		if i == n {
			leaves++
			var total float64
			for _, v := range val[:used] {
				total += v
			}
			if total >= best-ShortlistSlack*math.Abs(best) {
				cand, candTotal = append(cand, rgs...), append(candTotal, total)
			}
			if total > best {
				best = total
			}
			return
		}
		for b := 0; b < min(used+1, maxBlocks); b++ {
			set0, val0 := set[b], val[b]
			set[b] = set0 | 1<<i
			val[b] = memo[set[b]].val
			rgs[i] = uint8(b)
			walk(i+1, max(used, b+1))
			set[b], val[b] = set0, val0
		}
	}
	walk(0, 0)
	var shortlist [][][]int
	for k, total := range candTotal {
		if total < best-ShortlistSlack*math.Abs(best) {
			continue
		}
		var blocks [][]int
		for i, b := range cand[k*n : (k+1)*n] {
			if int(b) == len(blocks) {
				blocks = append(blocks, nil)
			}
			blocks[b] = append(blocks[b], i)
		}
		shortlist = append(shortlist, blocks)
	}
	return shortlist, leaves, nil
}
