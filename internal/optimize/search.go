package optimize

import (
	"errors"
	"fmt"
	"math"
)

// ShortlistSlack is how far, relatively, a screened total may fall below
// the best and still be shortlisted. Screening carries ≈ 1e-15 of rounding,
// so re-scoring the shortlist exactly cannot miss the exact optimum.
const ShortlistSlack = 1e-9

// SearchPartitions is the exhaustive counterpart of ContiguousDP for
// objectives of the form Σ_blocks g(Σw_i, Σcw_i) — their subset-sum view,
// where the DP uses prefix sums. It walks every set partition of the
// items into at most maxBlocks blocks depth-first, in EnumeratePartitions'
// order. Placing item i in block b changes that block alone, so a node
// costs one call of g and the way back restores the saved sums; a leaf
// adds its block values in block order, bit-for-bit what summing g over
// the finished partition yields; nothing is allocated per partition. It
// returns, in that order and laid out as EnumeratePartitions yields them,
// the partitions within ShortlistSlack of the best total, and how many it
// visited: CountPartitions(n, maxBlocks).
func SearchPartitions(w, cw []float64, maxBlocks int, g func(sumW, sumCW float64) float64) ([][][]int, int64, error) {
	n := len(w)
	if n == 0 || len(cw) != n || maxBlocks <= 0 {
		return nil, 0, errors.New("optimize: search needs items, one weight pair each, and a positive maxBlocks")
	}
	if n > 20 {
		return nil, 0, fmt.Errorf("optimize: refusing to enumerate partitions of %d > 20 items", n)
	}
	maxBlocks = min(maxBlocks, n)
	// Per-block Σw, Σcw and g of the two; the current restricted-growth
	// string; the shortlisted strings (n bytes each) and their totals.
	sumW, sumCW, val := make([]float64, maxBlocks), make([]float64, maxBlocks), make([]float64, maxBlocks)
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
			w0, cw0, val0 := sumW[b], sumCW[b], val[b]
			sumW[b], sumCW[b] = w0+w[i], cw0+cw[i]
			val[b] = g(sumW[b], sumCW[b])
			rgs[i] = uint8(b)
			walk(i+1, max(used, b+1))
			sumW[b], sumCW[b], val[b] = w0, cw0, val0
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
