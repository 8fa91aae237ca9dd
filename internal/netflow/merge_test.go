package netflow

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
)

// TestAggregateMergeRemembers drives one merge through Reset / Add /
// Sorted rounds over a churning key set and requires each round's result
// to equal a zero-value merge fed the same parts — sums and samples start
// over, idle keys leave, fresh ones sort in — while the kept state tracks
// the live keys exactly instead of growing with every key ever seen. A
// third merge is fed through AddAt with the position each key last
// landed at — stale after every compaction — or with a hint that is
// another key's position, past the end, or negative: a hint may only
// ever save the probe.
func TestAggregateMergeRemembers(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var kept, hinted AggregateMerge
	hints := map[string]int32{}
	var added, hits, misses uint64
	live := map[int]bool{}
	for i := 0; i < 40; i++ {
		live[i] = true
	}
	next := 40
	for round := 0; round < 200; round++ {
		switch {
		case round%4 == 1: // a burst of never-seen keys, sorting in among the kept
			for i := 0; i < 1+rng.Intn(6); i++ {
				live[next] = true
				next++
			}
		case round%4 == 3: // some keys stop
			for k := range live {
				if rng.Intn(8) == 0 {
					delete(live, k)
				}
			}
		case round == 100: // an empty round, then a new population
			clear(live)
		case round == 102:
			for i := 0; i < 30; i++ {
				live[next+i*3] = true
			}
			next += 90
		}
		var parts []*Aggregate
		for k := range live {
			for p := 0; p < 1+rng.Intn(3); p++ {
				parts = append(parts, &Aggregate{
					// Keys sort unlike their numbers: "k10" < "k9".
					Key:     fmt.Sprintf("k%d", k),
					Octets:  uint64(1 + rng.Intn(1000)),
					Records: 1 + rng.Intn(5),
					// A round's minimum sample is often above the last
					// round's: it must move, not stay the smallest ever.
					SrcAddr: netip.AddrFrom4([4]byte{10, 0, byte(round % 7), byte(rng.Intn(200))}),
					DstAddr: netip.AddrFrom4([4]byte{10, 1, 0, byte(rng.Intn(4))}),
					Input:   uint16(rng.Intn(3)),
				})
			}
		}
		var fresh AggregateMerge
		kept.Reset()
		hinted.Reset()
		for _, a := range parts {
			fresh.Add(a)
			kept.Add(a)
			hint, known := hints[a.Key]
			if !known || rng.Intn(6) == 0 {
				hint = int32(rng.Intn(2*len(live)+8)) - 4
			}
			hints[a.Key] = hinted.AddAt(a, hint)
			added++
		}
		h, m := hinted.Hints() // this round's: Reset starts them over
		if hits, misses = hits+h, misses+m; h+m != uint64(len(parts)) {
			t.Fatalf("round %d: %d hits and %d misses for %d parts", round, h, m, len(parts))
		}
		got, want := kept.SortedInto(nil), fresh.SortedInto(nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: kept merge\n got %+v\nwant %+v", round, got, want)
		}
		if got := hinted.SortedInto(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: hinted merge\n got %+v\nwant %+v", round, got, want)
		}
		if len(got) != len(live) || len(kept.index) != len(live) || len(kept.aggs) != len(live) ||
			len(kept.round) != len(live) || len(kept.order) != len(live) {
			t.Fatalf("round %d: %d live keys, %d out; kept state holds %d map entries, %d aggregates, %d rounds, %d positions",
				round, len(live), len(got), len(kept.index), len(kept.aggs), len(kept.round), len(kept.order))
		}
		if len(got) > 0 {
			got[0].Octets = 0 // the result is the caller's: scribbling on it must not reach the next round
		}
	}
	if next < 150 {
		t.Fatalf("only %d keys ever seen: the schedule did not churn", next)
	}
	if hits < added/4 || misses < added/8 || hits+misses != added {
		t.Fatalf("%d parts added by hint: %d hits, %d misses", added, hits, misses)
	}

	// An unchanged key set costs one allocation, the returned slice.
	var parts []*Aggregate
	for i := 0; i < 500; i++ {
		parts = append(parts, &Aggregate{Key: fmt.Sprintf("k%d", i), Octets: 1, Records: 1})
	}
	round := func() {
		kept.Reset()
		for _, a := range parts {
			kept.Add(a)
		}
		kept.SortedInto(nil)
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs > 1 {
		t.Fatalf("a round over an unchanged key set allocates %.0f objects, want the result alone", allocs)
	}
}
