package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/econ"
)

// FuzzCostOrder drives the cost order a Fitter carries — the same carry,
// merge and check, three bytes an operation — through epochs whose rows
// are added, removed and moved (in distance or in region), with exact
// ties, zero costs, and cost scales γ whose rounding ties rows that were
// apart (subnormal products) or sends them to +Inf. Every epoch's order
// must be the one slices.SortFunc gives; an epoch under the last one's γ
// must come by it without a sort, and one in which nothing moved without
// a merge; and bundling.CostOrder must reject the order corrupted any way
// a permutation can be.
func FuzzCostOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 3, 0, 3, 3, 4, 0, 0, 4, 0, 0, 0, 4, 5, 4, 0, 1, 1, 1, 0, 4, 0, 2})
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 4, 0, 4, 5, 4, 0, 0, 2, 0, 3, 4, 0, 1, 3, 2, 0, 4, 0, 3, 2, 0, 5, 4, 0, 4})
	f.Add([]byte{0, 9, 0, 0, 8, 0, 0, 7, 1, 4, 0, 0, 0, 6, 0, 2, 0, 4, 4, 0, 2})
	dists := []float64{0, 1, 1, 2.5, math.Nextafter(2.5, 3), 3, 7, 1e6, math.SmallestNonzeroFloat64}
	gammas := []float64{1, 0.1, 1.0 / 3, 1e-308, 3.7, 1e308}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 120 {
			data = data[:120]
		}
		rows := map[int]econ.Flow{}
		gamma := gammas[0]
		var o costOrder
		var prev []econ.Flow
		var from []int32
		still, rescaled := false, false // since the last epoch: nothing moved; γ did
		for ; len(data) >= 3; data = data[3:] {
			id, arg := int(data[1]%48), int(data[2])
			switch data[0] % 5 {
			case 0:
				r := rows[id]
				r.ID, r.Distance = fmt.Sprintf("r%02d", id), dists[arg%len(dists)]
				rows[id], still = r, false
			case 1:
				delete(rows, id)
				still = false
			case 2:
				g := gammas[arg%len(gammas)]
				rescaled = rescaled || g != gamma
				gamma, still = g, still && g == gamma
			case 3:
				if r, ok := rows[id]; ok {
					r.Region = econ.Region(arg % 3)
					rows[id], still = r, false
				}
			case 4:
				flows := make([]econ.Flow, 0, len(rows))
				for _, r := range rows {
					r.Cost = gamma * (r.Distance + float64(r.Region)/2)
					flows = append(flows, r)
				}
				slices.SortFunc(flows, func(a, b econ.Flow) int { return strings.Compare(a.ID, b.ID) })
				from = MatchSorted(from, len(prev), len(flows), func(i, j int) int { return strings.Compare(prev[i].ID, flows[j].ID) })
				o.carry(prev, flows, from)
				o.merge(flows)
				got, sorted := bundling.CostOrder(flows, o.idx) // Market.Bundle's check, without the DP
				o.idx = got
				o.settle(sorted, true)
				want := make([]int, len(flows))
				for i := range want {
					want[i] = i
				}
				slices.SortFunc(want, func(a, b int) int { return bundling.CostCompare(flows, a, b) })
				if !slices.Equal(got, want) {
					t.Fatalf("cost order %v (%s), sorted %v", got, o.outcome, want)
				}
				if still && len(flows) > 0 && o.outcome != "carried" {
					t.Fatalf("an epoch in which nothing moved %s its order", o.outcome)
				}
				if prev != nil && !rescaled && o.outcome == "sorted" {
					t.Fatalf("an epoch under the last one's γ sorted its order")
				}
				if n := len(want); n > 1 {
					for _, corrupt := range []func(h []int){
						func(h []int) { h[0], h[1] = h[1], h[0] },
						func(h []int) { h[n-2], h[n-1] = h[n-1], h[n-2] },
						func(h []int) { h[n-1] = h[0] },                // an index twice, one missing
						func(h []int) { h[1] = h[0] },                  // the same, side by side
						func(h []int) { h[n-1] = n },                   // out of range
						func(h []int) { h[0] = -1 },                    // out of range
						func(h []int) { copy(h, append(h[1:], h[0])) }, // rotated
					} {
						hint := slices.Clone(want)
						corrupt(hint)
						if order, sorted := bundling.CostOrder(flows, hint); !sorted || !slices.Equal(order, want) {
							t.Fatalf("corrupted hint accepted or mis-sorted: %v (sorted %v), want %v", order, sorted, want)
						}
					}
				}
				prev, still, rescaled = flows, true, false
			}
		}
	})
}
