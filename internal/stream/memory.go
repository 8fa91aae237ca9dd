package stream

import (
	"slices"
	"strings"

	"tieredpricing/internal/core"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
)

// RepriceTrace is what one re-price did: the wall time of each stage and
// how much of the epoch was carried over from the one before.
type RepriceTrace struct {
	Stages StageTimes `json:"-"`
	// Of the window's Rows aggregates, New had no predecessor in the last
	// epoch and Changed one with other octets or another endpoint sample;
	// Retired rows of that epoch have no successor.
	Rows    int `json:"rows"`
	New     int `json:"new"`
	Changed int `json:"changed"`
	Retired int `json:"retired"`
	// Rows whose resolution, and whose fitted valuation and powers, were
	// carried over; math.Pow calls of the fit, bundle and price stages.
	ResolveReused int   `json:"resolve_reused"`
	FitReused     int   `json:"fit_reused"`
	Powers        int64 `json:"powers"`
	// Slot aggregates the window merge folded at the position they
	// remembered, and those that paid the key's hash and probe.
	HintHits   uint64 `json:"hint_hits"`
	HintMisses uint64 `json:"hint_misses"`
	// How the bundle stage came by the flows' cost order: "carried" whole
	// from the last epoch, "merged" with OrderMerged new or moved rows, or
	// "sorted" afresh; empty under a strategy that needs no cost order.
	CostOrder   string `json:"cost_order,omitempty"`
	OrderMerged int    `json:"order_merged"`
	// Bytes the whole process allocated and GC cycles it completed while
	// the re-price ran (runtime/metrics), the re-price's own among them.
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
}

// rowMemory is what a Repricer keeps, between epochs, of the rows it
// last priced — only what depends on one row alone, so that a kept value
// is the value a fresh re-price would compute: resolved distance and
// region (endpoint sample; pure resolver only), the masked quote key
// (sample) and, in the fitter, v, v^α and (v/p0)^α
// (octets, duration, α, p0). Whatever depends on γ, a price or the other
// rows is recomputed. Reconfigure and an empty window reset it to zero.
type rowMemory struct {
	aggs       []netflow.Aggregate    // last epoch's rows, key-sorted
	spareAggs  []netflow.Aggregate    // the rows before those: the window merges this epoch's into their storage
	known      []demandfit.Resolution // known[i]: aggs[i] resolved
	keys       []rowKey               // keys[i]: aggs[i]'s quote key
	from       []int32                // this epoch's row → last epoch's, or −1
	fitter     core.Fitter
	flows      []econ.Flow            // the resolve buffer
	spareKnown []demandfit.Resolution // advance fills these while it reads those
	spareKeys  []rowKey
}

// rowKey is a row's quote key, once the snapshot build has computed it.
type rowKey struct {
	key      uint64
	computed bool
}

// advance makes aggs the remembered rows: each is paired with its
// predecessor by one merge-join over the two key-sorted lists (a key's
// string keeps its bytes from one Aggregates to the next, so the equal
// case is a pointer compare) and inherits what its unchanged endpoint
// sample still vouches for; a predecessor with no row is dropped here.
func (m *rowMemory) advance(aggs []netflow.Aggregate, pure bool, tr *RepriceTrace) {
	prev := m.aggs
	m.from = core.MatchSorted(m.from, len(prev), len(aggs), func(i, j int) int { return strings.Compare(prev[i].Key, aggs[j].Key) })
	known := slices.Grow(m.spareKnown[:0], len(aggs))[:len(aggs)]
	keys := slices.Grow(m.spareKeys[:0], len(aggs))[:len(aggs)]
	tr.Rows, tr.Retired = len(aggs), len(m.aggs)
	for j, i := range m.from {
		known[j], keys[j] = demandfit.Resolution{}, rowKey{}
		if i < 0 {
			tr.New++
			continue
		}
		tr.Retired--
		was, is := &m.aggs[i], &aggs[j]
		if was.SrcAddr != is.SrcAddr || was.DstAddr != is.DstAddr {
			tr.Changed++
			continue
		}
		if was.Octets != is.Octets {
			tr.Changed++
		}
		keys[j] = m.keys[i]
		if pure && m.known[i].OK {
			known[j] = m.known[i]
			tr.ResolveReused++
		}
	}
	m.aggs, m.spareAggs = aggs, m.aggs
	m.known, m.spareKnown = known, m.known
	m.keys, m.spareKeys = keys, m.keys
}
