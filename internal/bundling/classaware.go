package bundling

import (
	"errors"

	"tieredpricing/internal/econ"
)

// ClassAware wraps another strategy with the guard §4.3.1 introduces for
// the destination-type cost model: flows from different traffic classes
// ("on-net" vs "off-net") are never grouped into the same bundle, except
// when b is smaller than the number of classes present (a single blended
// bundle is then unavoidable and matches the b = 1 baseline).
//
// Bundles are allocated to classes proportionally to each class's share
// of the inner strategy's weights — approximated here by demand share —
// with every class getting at least one bundle.
type ClassAware struct {
	// Inner is the strategy applied within each class; the paper pairs
	// this guard with ProfitWeighted.
	Inner Strategy
}

// Name implements Strategy.
func (s ClassAware) Name() string { return "class-aware " + s.Inner.Name() }

// Bundle implements Strategy.
func (s ClassAware) Bundle(flows []econ.Flow, model econ.Model, b int) ([][]int, error) {
	if s.Inner == nil {
		return nil, errNoInner
	}
	if err := validateInput(flows, b); err != nil {
		return nil, err
	}
	classes := classesOf(flows)
	if len(classes) == 1 || b < len(classes) {
		// Single class, or too few bundles to separate classes: defer to
		// the inner strategy on the whole flow set.
		return s.Inner.Bundle(flows, model, b)
	}
	alloc := allocate(classes, b)
	parts := make([][][]int, len(classes))
	for i := range classes {
		var err error
		if parts[i], err = s.Inner.Bundle(classes[i].subset(flows), model, alloc[i]); err != nil {
			return nil, err
		}
	}
	return join(classes, parts, len(flows)), nil
}

// curve is Curve for ClassAware: the flows are split into classes, and
// each class's inner curve computed, once for every budget; budget b then
// joins each class's entry for its allocation at b.
func (s ClassAware) curve(flows []econ.Flow, model econ.Model, maxB int) ([][][]int, error) {
	if s.Inner == nil {
		return nil, errNoInner
	}
	classes := classesOf(flows)
	if len(classes) == 1 {
		return Curve(s.Inner, flows, model, maxB)
	}
	out := make([][][]int, maxB)
	for b := 1; b <= min(len(classes)-1, maxB); b++ {
		var err error
		if out[b-1], err = s.Inner.Bundle(flows, model, b); err != nil {
			return nil, err
		}
	}
	if maxB < len(classes) {
		return out, nil
	}
	// A class's allocation only grows with b, so its allocation at maxB
	// is the longest curve any b reads.
	top := allocate(classes, maxB)
	curves := make([][][][]int, len(classes))
	for i := range classes {
		var err error
		if curves[i], err = Curve(s.Inner, classes[i].subset(flows), model, top[i]); err != nil {
			return nil, err
		}
	}
	parts := make([][][]int, len(classes))
	for b := len(classes); b <= maxB; b++ {
		for i, a := range allocate(classes, b) {
			parts[i] = curves[i][a-1]
		}
		out[b-1] = join(classes, parts, len(flows))
	}
	return out, nil
}

var errNoInner = errors.New("bundling: class-aware strategy needs an inner strategy")

// class is one traffic class: its flows' indices and total demand.
type class struct {
	idx    []int
	demand float64
}

// classesOf groups flow indices by class, in first-seen class order.
func classesOf(flows []econ.Flow) []class {
	var classes []class
	var at [2]int // 1 + the class index of off-net and on-net flows; 0 = unseen
	for i, f := range flows {
		k := 0
		if f.OnNet {
			k = 1
		}
		if at[k] == 0 {
			classes = append(classes, class{})
			at[k] = len(classes)
		}
		c := &classes[at[k]-1]
		c.idx = append(c.idx, i)
		c.demand += f.Demand
	}
	return classes
}

// subset copies the class's flows out of flows.
func (c class) subset(flows []econ.Flow) []econ.Flow {
	sub := make([]econ.Flow, len(c.idx))
	for j, fi := range c.idx {
		sub[j] = flows[fi]
	}
	return sub
}

// allocate gives each class one of b ≥ len(classes) bundles, then the rest
// one at a time to the class with the largest demand per already-allocated
// bundle (largest-remainder method). A class cannot use more bundles than
// it has flows.
func allocate(classes []class, b int) []int {
	alloc := make([]int, len(classes))
	for i := range alloc {
		alloc[i] = 1
	}
	var total float64
	for _, c := range classes {
		total += c.demand
	}
	for r := 0; r < b-len(classes); r++ {
		best, bestScore := -1, -1.0
		for i, c := range classes {
			if alloc[i] >= len(c.idx) {
				continue
			}
			score := c.demand / total / float64(alloc[i])
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		alloc[best]++
	}
	return alloc
}

// join maps each class's partition of its own flows back to indices into
// all n flows, in class order; the blocks are capacity-capped runs of one
// array.
func join(classes []class, parts [][][]int, n int) [][]int {
	blocks := 0
	for _, p := range parts {
		blocks += len(p)
	}
	out := make([][]int, 0, blocks)
	back := make([]int, 0, n)
	for i, c := range classes {
		for _, block := range parts[i] {
			start := len(back)
			for _, sj := range block {
				back = append(back, c.idx[sj])
			}
			out = append(out, back[start:len(back):len(back)])
		}
	}
	return out
}
