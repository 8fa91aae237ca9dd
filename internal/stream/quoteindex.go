package stream

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
)

// quoteIndex is a snapshot's map from quote key to tier. IPv4 pairs —
// every bucket a v5 exporter can produce — live in one open-addressed
// table (linear probing) over the packed (src, dst) pair: a single
// pointer-free array, so a build is one allocation the collector never
// scans, where a Go map of 20 000 keys is a graph of buckets it marks
// every epoch. Any other pair goes to a map made only when one appears.
// Setting a key twice keeps the last tier, as a map assignment does. Each
// snapshot builds its own; none is shared or changed once published.
type quoteIndex struct {
	table []quoteEntry // a power of two long, at most two thirds full
	other map[quoteKey]int
}

// quoteEntry is one table entry: the packed pair and 1 + its tier, 0 for
// an entry no key has taken.
type quoteEntry struct {
	key  uint64
	tier int32
}

// quoteSeed keys the table's hash for this process, so no exporter can
// choose buckets that collide in every snapshot.
var quoteSeed = rand.Uint64()

func newQuoteIndex(n int) quoteIndex {
	return quoteIndex{table: make([]quoteEntry, 1<<bits.Len(uint(n+n/2)))}
}

// packed returns k's table key, ok only for an IPv4 pair.
func (k quoteKey) packed() (uint64, bool) {
	if !k.src.Is4() || !k.dst.Is4() {
		return 0, false
	}
	s, d := k.src.As4(), k.dst.As4()
	return uint64(binary.BigEndian.Uint32(s[:]))<<32 | uint64(binary.BigEndian.Uint32(d[:])), true
}

// slot returns the table position holding key, or the empty one where
// it would go.
func (x *quoteIndex) slot(key uint64) *quoteEntry {
	// splitmix64's finalizer over the seeded key: every output bit depends
	// on every input bit, so the low bits the table takes serve.
	h := key ^ quoteSeed
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	mask := uint64(len(x.table) - 1)
	for i := (h ^ h>>31) & mask; ; i = (i + 1) & mask {
		if e := &x.table[i]; e.tier == 0 || e.key == key {
			return e
		}
	}
}

func (x *quoteIndex) set(k quoteKey, tier int) {
	key, ok := k.packed()
	if !ok {
		if x.other == nil {
			x.other = make(map[quoteKey]int)
		}
		x.other[k] = tier
		return
	}
	*x.slot(key) = quoteEntry{key: key, tier: int32(tier) + 1}
}

func (x *quoteIndex) get(k quoteKey) (tier int, ok bool) {
	key, ok := k.packed()
	if !ok {
		tier, ok = x.other[k]
		return tier, ok
	}
	if len(x.table) == 0 {
		return 0, false
	}
	if e := x.slot(key); e.tier != 0 {
		return int(e.tier) - 1, true
	}
	return 0, false
}
