package stream

import (
	"hash/maphash"

	"tieredpricing/internal/netflow"
)

// dedupTable is a window's one dedup set: every flow key counted by a
// live slot, each tagged with the slot instance that counted it. It
// replaces a Go map per slot, so a record costs one hash and one probe
// however many slots are live, and it holds no pointers the collector
// would have to trace — the directory and the chunk list aside, one
// pointer per segment and per key chunk.
//
// The keys themselves are not in the hash table. Each slot instance
// appends the keys it claims, in claim order, to a list of fixed-size
// chunks it owns (keyChunk), and a table entry holds 12 bytes: the key's
// hash tag and instance (meta) and the key's position in the chunk pool
// (pos). A probe reads a key only for an entry whose instance is live,
// so a "duplicate" answer always rests on a live instance that holds the
// exact 32 bytes; there is no fingerprint-only match.
//
// Slot instances, not slot indices, name the owner: a slot that is
// evicted and later re-created at the same index (the clock stepped back)
// is a new instance, and the old one's keys stay forgotten. Evicting a
// slot is retire — one flag and one list splice, O(1) — after which its
// entries read as absent and its chunks are free for the next keys
// anyone claims, so a window rotating at a steady rate allocates nothing
// for keys. An entry's space comes back in bounded steps: an insert takes
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
// never hashes and never touches a key: it moves meta and pos alone.
//
// Not safe for concurrent use; the window's lock covers it.
type dedupTable struct {
	dir   []*dedupSeg // 1<<depth entries
	depth uint8
	spare *dedupSeg // zeroed; the next rebuild's destination, so a compaction allocates nothing

	// Slot instances are numbered in creation order. insts[i] is instance
	// base+i; instances below base are all retired. Ids wrap at 2^32
	// (136 years of one-second slots) and skip 0, which marks an entry
	// that was never used.
	base  uint32
	insts []dedupInst

	// chunks is every key chunk the table holds, each on one list: a live
	// instance's, in claim order, or the free list, which new keys draw
	// from before a chunk is allocated. An entry's pos is its key's chunk
	// index << chunkShift | offset, which bounds the pool at 2^32 keys
	// (128 GiB of them).
	chunks []keyChunk
	free   int32 // head of the free list, -1 when it is empty
}

// dedupInst is one slot instance: whether it is live, how many keys it
// has claimed, and the first and last of the chunks they fill.
type dedupInst struct {
	live       bool
	n          uint32
	head, tail int32
}

// keyChunk is one chunk of the key pool and the chunk after it on its
// list (-1 ends a list).
type keyChunk struct {
	keys *[chunkKeys]netflow.PackedKey
	next int32
}

const (
	// segSize is a segment's entry count, the unit of every reclaim and
	// growth step: 12 KiB, a few microseconds to rebuild under the lock.
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

	// A key chunk holds chunkKeys keys: 16 KiB, an exact allocator size
	// class. An instance wastes at most one chunk's tail.
	chunkShift = 9
	chunkKeys  = 1 << chunkShift
	chunkMask  = chunkKeys - 1
)

// dedupSeg is one open-addressed segment. meta[i] is the entry's hash
// tag (high 32 bits) over its slot instance (low 32); 0 is an entry no
// key has ever occupied, which ends a probe. pos[i] is where the entry's
// key sits in the chunk pool, meaningful only while its instance is
// live. The arrays are allocated apart so each is an exact allocator
// size class and pointer-free.
type dedupSeg struct {
	depth uint8
	used  int32 // entries with meta != 0
	meta  *[segSize]uint64
	pos   *[segSize]uint32
}

func newDedupSeg() *dedupSeg {
	return &dedupSeg{meta: new([segSize]uint64), pos: new([segSize]uint32)}
}

// dedupSeed keys the dedup hash for this process, so no exporter can
// choose flow keys that collide in every window.
var dedupSeed = maphash.MakeSeed()

// hashedKey is a record's packed dedup key and its hash, computed once
// for the table probe. ok is false for a record that has no packed key
// (netflow.FlowKey.Pack).
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

// init empties the table, releasing every segment and key chunk.
func (t *dedupTable) init() {
	*t = dedupTable{dir: []*dedupSeg{newDedupSeg()}, spare: newDedupSeg(), base: 1, free: -1}
}

// open registers a new slot instance and returns its id.
func (t *dedupTable) open() uint32 {
	if t.base+uint32(len(t.insts)) == 0 {
		t.insts = append(t.insts, dedupInst{}) // burn id 0
	}
	t.insts = append(t.insts, dedupInst{live: true})
	return t.base + uint32(len(t.insts)) - 1
}

// retire marks an instance evicted: from here on its entries are absent,
// and its chunks go to the front of the free list.
func (t *dedupTable) retire(inst uint32) {
	in := &t.insts[inst-t.base]
	if in.n > 0 {
		t.chunks[in.tail].next = t.free
		t.free = in.head
	}
	*in = dedupInst{}
	n := 0
	for n < len(t.insts) && !t.insts[n].live {
		n++
	}
	t.insts = t.insts[:copy(t.insts, t.insts[n:])]
	t.base += uint32(n)
}

func (t *dedupTable) live(inst uint32) bool {
	i := inst - t.base // wraps high for an instance below base
	return i < uint32(len(t.insts)) && t.insts[i].live
}

// key returns the key at pool position p.
func (t *dedupTable) key(p uint32) *netflow.PackedKey {
	return &t.chunks[p>>chunkShift].keys[p&chunkMask]
}

// claim reports whether a live instance already holds hk's key; if none
// does, it records the key under inst. A key occupies at most one live
// entry: the probe runs to the end of the key's path before anything is
// written, and the new entry takes the first dead one on the way.
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
			if uint32(m>>32) == tag && t.live(uint32(m)) && *t.key(seg.pos[i]) == hk.key {
				return true
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
		seg.pos[i] = t.push(inst, &hk.key)
		return false
	}
}

// push appends k to inst's key list and returns its pool position,
// taking a chunk from the free list, or allocating one, when the
// instance's last chunk is full.
func (t *dedupTable) push(inst uint32, k *netflow.PackedKey) uint32 {
	in := &t.insts[inst-t.base]
	off := in.n & chunkMask
	if off == 0 {
		c := t.free
		if c < 0 {
			c = int32(len(t.chunks))
			t.chunks = append(t.chunks, keyChunk{keys: new([chunkKeys]netflow.PackedKey)})
		} else {
			t.free = t.chunks[c].next
		}
		t.chunks[c].next = -1
		if in.n == 0 {
			in.head = c
		} else {
			t.chunks[in.tail].next = c
		}
		in.tail = c
	}
	in.n++
	t.chunks[in.tail].keys[off] = *k
	return uint32(in.tail)<<chunkShift | off
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
		dst.meta[j], dst.pos[j] = m, old.pos[i]
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

// appendKeys appends the keys live instance inst holds to dst, in the
// order it claimed them.
func (t *dedupTable) appendKeys(dst []netflow.PackedKey, inst uint32) []netflow.PackedKey {
	in := &t.insts[inst-t.base]
	for c, n := in.head, in.n; n > 0; c = t.chunks[c].next {
		k := min(n, chunkKeys)
		dst = append(dst, t.chunks[c].keys[:k]...)
		n -= k
	}
	return dst
}
