package core

import (
	"slices"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/econ"
)

// costOrder is what a Fitter keeps of its flows' cost order from one fit
// to the next. After a Bundle, idx is the order bundling.CostOrder
// verified over that fit's flows (valid). The next fit carries it through
// its flow join: a persisting row keeps its place, and a row that is new
// or whose cost inputs changed is merged in by cost. Bundle hands the
// result to bundling.Optimal.BundleInOrder as its hint, whose CostOrder
// keeps it only if it is the sorted order and sorts otherwise — the carry
// guesses, the check makes it exact, ties included.
type costOrder struct {
	idx     []int
	valid   bool
	to      []int32 // the last fit's flow → this fit's, or −1
	extra   []int   // this fit's flows the carried order does not place
	outcome string  // how the last Bundle came by the order
}

// carry maps the verified order over prev onto flows (from pairs them),
// leaving idx with the rows that keep their place, in order, and extra
// with those to merge; with no verified order both are left empty. It
// runs before the Fitter overwrites prev.
func (o *costOrder) carry(prev, flows []econ.Flow, from []int32) {
	o.extra, o.outcome = o.extra[:0], ""
	ok := o.valid && len(o.idx) == len(prev)
	if o.valid = false; !ok {
		o.idx = o.idx[:0]
		return
	}
	to := slices.Grow(o.to[:0], len(prev))[:len(prev)]
	for i := range to {
		to[i] = -1
	}
	for j, i := range from {
		if i >= 0 && prev[i].Distance == flows[j].Distance && prev[i].Region == flows[j].Region && prev[i].OnNet == flows[j].OnNet {
			to[i] = int32(j)
		} else {
			o.extra = append(o.extra, j)
		}
	}
	kept := o.idx[:0]
	for _, i := range o.idx {
		if j := to[i]; j >= 0 {
			kept = append(kept, int(j))
		}
	}
	o.idx, o.to = kept, to
}

// merge places the extra rows by the costs this fit calibrated, merging
// them into the carried rows from the back.
func (o *costOrder) merge(flows []econ.Flow) {
	slices.SortFunc(o.extra, func(a, b int) int { return bundling.CostCompare(flows, a, b) })
	k := len(o.idx) - 1
	o.idx = slices.Grow(o.idx, len(o.extra))[:len(o.idx)+len(o.extra)]
	for at, e := len(o.idx)-1, len(o.extra)-1; e >= 0; at-- {
		if k >= 0 && bundling.CostCompare(flows, o.idx[k], o.extra[e]) > 0 {
			o.idx[at] = o.idx[k]
			k--
		} else {
			o.idx[at] = o.extra[e]
			e--
		}
	}
}

// settle records how the Bundle that checked idx came by it: sorted
// afresh, or the candidate passed; ok is whether that Bundle succeeded,
// leaving idx the flows' verified order for the next fit to carry.
func (o *costOrder) settle(sorted, ok bool) {
	switch {
	case !ok:
		o.outcome = ""
	case sorted:
		o.outcome = "sorted"
	case len(o.extra) > 0:
		o.outcome = "merged"
	default:
		o.outcome = "carried"
	}
	o.valid = ok
}
