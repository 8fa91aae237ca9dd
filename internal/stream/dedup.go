package stream

import (
	"hash/maphash"

	"tieredpricing/internal/netflow"
)

// dedupTable is a window's one dedup set: every flow key counted by a
// live slot, each tagged with the slot instance that counted it. It
// replaces a Go map per slot, so a record costs one hash and one probe
// however many slots are live, and it holds no pointers the collector
// would have to trace — the directory aside, one pointer per segment.
//
// Slot instances, not slot indices, name the owner: a slot that is
// evicted and later re-created at the same index (the clock stepped back)
// is a new instance, and the old one's keys stay forgotten. Evicting a
// slot is retire — one flag, O(1) — after which its entries read as
// absent. Their space comes back in bounded steps: an insert overwrites
// the first dead entry on its probe path, and a segment that fills up is
// rebuilt without them. There is never a pass over the whole table.
//
// Layout is extendible hashing over fixed-size open-addressed segments
// (linear probing): the directory is indexed by the hash's top depth
// bits, a segment holds every key sharing its first seg.depth bits, and
// the only growth step is splitting one full segment in two, doubling
// the directory when that segment was alone under its prefix. All of a
// key's placement — directory bits, home position, match filter — comes
// from the high half of its hash, which the entry keeps, so a rebuild
// never hashes; the low half routes records to shards (shardOf).
//
// Not safe for concurrent use; the window's lock covers it.
type dedupTable struct {
	dir   []*dedupSeg // 1<<depth entries
	depth uint8
	spare *dedupSeg // zeroed; the next rebuild's destination, so a compaction allocates nothing

	// Slot instances are numbered in creation order. alive[i] is instance
	// base+i; instances below base are all retired. Ids wrap at 2^32
	// (136 years of one-second slots) and skip 0, which marks an entry
	// that was never used.
	base  uint32
	alive []bool
}

const (
	// segSize is a segment's entry count, the unit of every reclaim and
	// growth step: 40 KiB, a few microseconds to rebuild under the lock.
	segSize = 1 << 10
	segMask = segSize - 1
	// segLimit is how many entries, live or dead, a segment may hold
	// before it is rebuilt: at 3/4 full a linear probe for an absent key
	// still averages about one cache line of meta words.
	segLimit = segSize * 3 / 4
	// segSplit is the live count above which a rebuild splits instead of
	// compacting in place: a kept segment then has at least segLimit −
	// segSplit = 256 inserts before its next rebuild, and each half of a
	// split starts at least a quarter full.
	segSplit = segSize / 2
)

// dedupSeg is one open-addressed segment. meta[i] is the entry's hash
// tag (high 32 bits) over its slot instance (low 32); 0 is an entry no
// key has ever occupied, which ends a probe. The arrays are allocated
// apart so each is an exact allocator size class and pointer-free.
type dedupSeg struct {
	depth uint8
	used  int32 // entries with meta != 0
	meta  *[segSize]uint64
	keys  *[segSize]netflow.PackedKey
}

func newDedupSeg() *dedupSeg {
	return &dedupSeg{meta: new([segSize]uint64), keys: new([segSize]netflow.PackedKey)}
}

// dedupSeed keys the dedup hash for this process, so no exporter can
// choose flow keys that collide in every window.
var dedupSeed = maphash.MakeSeed()

// hashedKey is a record's packed dedup key and its hash, computed once
// and used for shard routing and the table probe alike. ok is false for
// a record that has no packed key (netflow.FlowKey.Pack).
type hashedKey struct {
	key  netflow.PackedKey
	hash uint64
	ok   bool
}

// hashKey hashes a packed key as FlowKey.Pack or netflow.PackRecord
// returns it.
func hashKey(key netflow.PackedKey, ok bool) hashedKey {
	return hashedKey{key: key, hash: maphash.Bytes(dedupSeed, key[:]), ok: ok}
}

// shardOf routes a hash to one of n shards by its low half, which the
// table's own placement never reads.
func (hk *hashedKey) shardOf(n int) int { return int(uint32(hk.hash) % uint32(n)) }

func (t *dedupTable) init() {
	*t = dedupTable{dir: []*dedupSeg{newDedupSeg()}, spare: newDedupSeg(), base: 1}
}

// open registers a new slot instance and returns its id.
func (t *dedupTable) open() uint32 {
	if t.base+uint32(len(t.alive)) == 0 {
		t.alive = append(t.alive, false) // burn id 0
	}
	t.alive = append(t.alive, true)
	return t.base + uint32(len(t.alive)) - 1
}

// retire marks an instance evicted: from here on its entries are absent.
func (t *dedupTable) retire(inst uint32) {
	t.alive[inst-t.base] = false
	n := 0
	for n < len(t.alive) && !t.alive[n] {
		n++
	}
	t.alive = t.alive[:copy(t.alive, t.alive[n:])]
	t.base += uint32(n)
}

func (t *dedupTable) live(inst uint32) bool {
	i := inst - t.base // wraps high for an instance below base
	return i < uint32(len(t.alive)) && t.alive[i]
}

// claim reports whether a live instance already holds hk's key; if none
// does, it records the key under inst. A key occupies at most one entry:
// the probe runs to the end of the key's path before anything is
// written, and a dead entry for the same key is taken over in place.
func (t *dedupTable) claim(hk *hashedKey, inst uint32) (dup bool) {
	tag := uint32(hk.hash >> 32)
	for {
		seg := t.dir[hk.hash>>(64-t.depth)]
		i, free := tag&segMask, -1
		for {
			m := seg.meta[i]
			if m == 0 {
				break
			}
			if uint32(m>>32) == tag && seg.keys[i] == hk.key {
				if t.live(uint32(m)) {
					return true
				}
				free = int(i)
				break
			}
			if free < 0 && !t.live(uint32(m)) {
				free = int(i)
			}
			i = (i + 1) & segMask
		}
		switch {
		case free >= 0:
			i = uint32(free)
		case seg.used == segLimit:
			t.rebuild(seg, hk.hash)
			continue
		default:
			seg.used++
		}
		seg.meta[i] = uint64(tag)<<32 | uint64(inst)
		seg.keys[i] = hk.key
		return false
	}
}

// rebuild replaces a full segment — the one h routes to — with one
// holding only its live entries, or with two, split on the next hash
// bit, when the live entries alone leave too little room.
func (t *dedupTable) rebuild(old *dedupSeg, h uint64) {
	live := 0
	for _, m := range old.meta {
		if m != 0 && t.live(uint32(m)) {
			live++
		}
	}
	lo, hi := t.spare, t.spare
	lo.depth = old.depth
	if live > segSplit {
		if old.depth == t.depth {
			dir := make([]*dedupSeg, 2*len(t.dir))
			for i, seg := range t.dir {
				dir[2*i], dir[2*i+1] = seg, seg
			}
			t.dir, t.depth = dir, t.depth+1
		}
		lo.depth++
		hi = newDedupSeg()
		hi.depth = lo.depth
	}
	bit := uint32(1) << 31 >> old.depth // the tag bit a split tells its halves apart by
	for i, m := range old.meta {
		if m == 0 || !t.live(uint32(m)) {
			continue
		}
		dst := lo
		if hi != lo && uint32(m>>32)&bit != 0 {
			dst = hi
		}
		j := uint32(m>>32) & segMask
		for dst.meta[j] != 0 {
			j = (j + 1) & segMask
		}
		dst.meta[j], dst.keys[j] = m, old.keys[i]
		dst.used++
	}
	span := 1 << (t.depth - old.depth) // directory entries that led to old
	first := int(h>>(64-old.depth)) * span
	for j := 0; j < span; j++ {
		if j < span/2 {
			t.dir[first+j] = lo
		} else {
			t.dir[first+j] = hi
		}
	}
	clear(old.meta[:])
	old.used = 0
	t.spare = old
}

// each calls fn for every key a live instance holds, in no particular
// order, with the instance's offset from t.base.
func (t *dedupTable) each(fn func(slot int, k *netflow.PackedKey)) {
	for i := 0; i < len(t.dir); {
		seg := t.dir[i]
		for j, m := range seg.meta {
			if m != 0 && t.live(uint32(m)) {
				fn(int(uint32(m)-t.base), &seg.keys[j])
			}
		}
		i += 1 << (t.depth - seg.depth)
	}
}
