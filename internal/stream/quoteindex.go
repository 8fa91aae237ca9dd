package stream

import (
	"math/bits"
	"math/rand/v2"
)

// quoteIndex is a snapshot's map from a packed key — a quote key's
// (src, dst) pair, or its destination word alone — to tier: an
// open-addressed table (linear probing), a single pointer-free array,
// so a build is one allocation the collector never scans, where a Go map
// of 20 000 keys is a graph of buckets it marks every epoch. Setting a
// key twice keeps the last tier, as a map assignment does. Each snapshot
// builds its own; none is shared or changed once published.
type quoteIndex []quoteEntry // a power of two long, at most two thirds full

// quoteEntry is one table entry: the packed key and 1 + its tier, 0 for
// an entry no key has taken.
type quoteEntry struct {
	key  uint64
	tier int32
}

// quoteSeed keys the table's hash for this process, so no exporter can
// choose buckets that collide in every snapshot.
var quoteSeed = rand.Uint64()

func newQuoteIndex(n int) quoteIndex {
	return make(quoteIndex, 1<<bits.Len(uint(n+n/2)))
}

// slot returns the table position holding key, or the empty one where
// it would go.
func (x quoteIndex) slot(key uint64) *quoteEntry {
	// splitmix64's finalizer over the seeded key: every output bit depends
	// on every input bit, so the low bits the table takes serve.
	h := key ^ quoteSeed
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	mask := uint64(len(x) - 1)
	for i := (h ^ h>>31) & mask; ; i = (i + 1) & mask {
		if e := &x[i]; e.tier == 0 || e.key == key {
			return e
		}
	}
}

func (x quoteIndex) set(key uint64, tier int) {
	*x.slot(key) = quoteEntry{key: key, tier: int32(tier) + 1}
}

func (x quoteIndex) get(key uint64) (tier int, ok bool) {
	if len(x) == 0 {
		return 0, false
	}
	if e := x.slot(key); e.tier != 0 {
		return int(e.tier) - 1, true
	}
	return 0, false
}
