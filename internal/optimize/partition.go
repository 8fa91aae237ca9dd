// Package optimize supplies the generic optimization machinery behind the
// paper's bundling and pricing computations: a dynamic program over
// contiguous partitions (the workhorse of the optimal bundling strategy),
// an exact set-partition enumerator for cross-checking on small inputs,
// scalar root finding and maximization, and the multivariate gradient
// ascent the paper describes for logit price optimization.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// BlockValue returns the value of grouping items lo..hi-1 (of some fixed
// ordering) into one block. Implementations are expected to be O(1) via
// prefix sums; the DP calls it O(n²·B) times.
type BlockValue func(lo, hi int) float64

// ContiguousDP finds the contiguous partition of 0..n-1 into at most
// maxBlocks non-empty blocks maximizing the sum of block values. It
// returns the blocks as [lo, hi) index pairs in order, plus the total.
//
// Both demand models in this repository reduce optimal bundling to this
// problem: their partition objectives have the form
// Σ_b weight(block)·g(weighted mean cost of block) with g strictly convex,
// for which an optimal partition is contiguous in cost order (see
// DESIGN.md §4; the property is additionally cross-checked against
// exhaustive set-partition enumeration in tests).
//
// This is the O(n²·maxBlocks) reference implementation, kept as the
// oracle for the property tests and for block values that do not satisfy
// the concave-Monge condition; hot paths use the O(n·maxBlocks)
// ContiguousDPMonotone.
func ContiguousDP(n, maxBlocks int, val BlockValue) ([][2]int, float64, error) {
	if n <= 0 {
		return nil, 0, errors.New("optimize: n must be positive")
	}
	if maxBlocks <= 0 {
		return nil, 0, errors.New("optimize: maxBlocks must be positive")
	}
	if maxBlocks > n {
		maxBlocks = n
	}
	negInf := math.Inf(-1)

	// best[b][j]: max value of splitting the first j items into exactly
	// b+1 blocks. cut[b][j]: the start of the last block in that optimum.
	best := make([][]float64, maxBlocks)
	cut := make([][]int, maxBlocks)
	for b := range best {
		best[b] = make([]float64, n+1)
		cut[b] = make([]int, n+1)
		for j := range best[b] {
			best[b][j] = negInf
		}
	}
	for j := 1; j <= n; j++ {
		best[0][j] = val(0, j)
		cut[0][j] = 0
	}
	for b := 1; b < maxBlocks; b++ {
		for j := b + 1; j <= n; j++ {
			for i := b; i < j; i++ {
				if best[b-1][i] == negInf {
					continue
				}
				v := best[b-1][i] + val(i, j)
				if v > best[b][j] {
					best[b][j] = v
					cut[b][j] = i
				}
			}
		}
	}

	// Allow fewer than maxBlocks blocks: take the best over block counts.
	bestB, bestV := 0, best[0][n]
	for b := 1; b < maxBlocks; b++ {
		if best[b][n] > bestV {
			bestB, bestV = b, best[b][n]
		}
	}

	// Reconstruct.
	blocks := make([][2]int, bestB+1)
	j := n
	for b := bestB; b >= 0; b-- {
		i := cut[b][j]
		blocks[b] = [2]int{i, j}
		j = i
	}
	return blocks, bestV, nil
}

// BlocksToPartition converts [lo,hi) index pairs over a permutation order
// into a partition of original indices: block k contains
// order[lo_k..hi_k-1].
func BlocksToPartition(blocks [][2]int, order []int) [][]int {
	out := make([][]int, len(blocks))
	for k, b := range blocks {
		block := make([]int, b[1]-b[0])
		copy(block, order[b[0]:b[1]])
		out[k] = block
	}
	return out
}

// EnumeratePartitions calls yield with every set partition of 0..n-1 into
// at most maxBlocks non-empty blocks, in restricted-growth-string order.
// Enumeration stops early if yield returns false. Each yielded partition
// is freshly allocated, so yield may retain it.
//
// The count grows like the Bell numbers, so this is only suitable for
// small n (the paper notes "more than a billion ways to divide one
// hundred traffic flows into six pricing bundles"); it exists to verify
// the DP and to run the paper's exhaustive-search baseline on aggregated
// flow sets.
func EnumeratePartitions(n, maxBlocks int, yield func(partition [][]int) bool) error {
	if n <= 0 {
		return errors.New("optimize: n must be positive")
	}
	if maxBlocks <= 0 {
		return errors.New("optimize: maxBlocks must be positive")
	}
	if n > 20 {
		return fmt.Errorf("optimize: refusing to enumerate partitions of %d > 20 items", n)
	}
	// Restricted growth string: a[0] = 0 and, for i ≥ 1,
	// a[i] ∈ [0, max(a[0..i-1])+1], capped at maxBlocks-1.
	a := make([]int, n)
	emit := func(maxUsed int) bool {
		blocks := make([][]int, maxUsed+1)
		for idx, b := range a {
			blocks[b] = append(blocks[b], idx)
		}
		return yield(blocks)
	}
	var rec func(i, maxUsed int) bool
	rec = func(i, maxUsed int) bool {
		if i == n {
			return emit(maxUsed)
		}
		limit := maxUsed + 1
		if limit > maxBlocks-1 {
			limit = maxBlocks - 1
		}
		for b := 0; b <= limit; b++ {
			a[i] = b
			nm := maxUsed
			if b > nm {
				nm = b
			}
			if !rec(i+1, nm) {
				return false
			}
		}
		return true
	}
	a[0] = 0
	rec(1, 0)
	return nil
}

// CountPartitions returns the number of set partitions of n items into at
// most maxBlocks blocks (a partial Bell number). Useful for callers that
// want to bound exhaustive-search work before starting it.
func CountPartitions(n, maxBlocks int) (int64, error) {
	if n <= 0 || maxBlocks <= 0 {
		return 0, errors.New("optimize: n and maxBlocks must be positive")
	}
	// Stirling numbers of the second kind, S(n, k).
	s := make([][]int64, n+1)
	for i := range s {
		s[i] = make([]int64, maxBlocks+1)
	}
	s[0][0] = 1
	for i := 1; i <= n; i++ {
		for k := 1; k <= maxBlocks && k <= i; k++ {
			s[i][k] = int64(k)*s[i-1][k] + s[i-1][k-1]
		}
	}
	var total int64
	for k := 1; k <= maxBlocks; k++ {
		total += s[n][k]
	}
	return total, nil
}
