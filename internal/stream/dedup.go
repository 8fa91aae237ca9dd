package stream

import (
	"hash/maphash"

	"tieredpricing/internal/netflow"
)

// dedupTable is a window's one dedup set: every flow key counted by a
// live slot, each filed by the slot instance that counted it. It
// replaces a Go map per slot, so a record costs one hash and one probe
// however many slots are live, and it holds no pointers the collector
// would have to trace — the directory and the chunk list aside, one
// pointer per segment and per key chunk.
//
// The keys themselves are not in the hash table. Each slot instance
// appends the keys it claims, in claim order, to a list of fixed-size
// chunks it owns (keyChunk), and a table entry is one 8-byte word: the
// key's hash tag, the generation of the chunk its key sits in, and the
// key's position in the chunk pool. Liveness is read from the chunk, not
// stored in the entry: an entry is live when its chunk is on a live
// instance's list, in the generation the entry names, and filled past
// the entry's offset. A chunk's generation steps (skipping 0, which
// marks an entry no key has ever occupied) each time the chunk is taken
// for an instance, and its fill restarts at 0.
//
// The invariant that makes a "duplicate" answer true: a probe answers
// duplicate only when the 32 key bytes are equal, and when they sit at a
// position that a live instance wrote in the chunk's current tenure —
// the chunk is live and the offset is below its fill. So the instance
// holds that exact key, whatever the generation bits say; there is no
// fingerprint-only match. The fill check is load-bearing: a chunk taken
// from the free list still holds its previous tenure's keys past the new
// fill. The generation only tells entries of earlier tenures apart, and
// it has 8 bits: an entry written 255 tenures of its chunk ago, left
// behind in a segment no insert or rebuild has touched since, reads live
// again. Such a stale entry can never produce an answer — the bytes at
// its position are a live key or fail the compare — it only keeps its
// place one tenure longer. A genuine entry always reads live: its chunk
// stays on its instance's list, in its generation, and its fill only
// grows, until the instance is retired.
//
// Slot instances, not slot indices, name the owner: a slot that is
// evicted and later re-created at the same index (the clock stepped back)
// is a new instance, and the old one's keys stay forgotten. Evicting a
// slot is retire — one pass over the instance's chunks and one list
// splice — after which its entries read as absent and its chunks are
// free for the next keys anyone claims, so a window rotating at a steady
// rate allocates nothing for keys. An entry's space comes back in bounded
// steps: an insert takes the first dead entry on its probe path, and a
// segment that fills up is rebuilt without them. There is never a pass
// over the whole table.
//
// Layout is extendible hashing over fixed-size open-addressed segments
// (linear probing): the directory is indexed by the hash's top depth
// bits, a segment holds every key sharing its first seg.depth bits, and
// the only growth step is splitting one full segment in two, doubling
// the directory when that segment was alone under its prefix. All of a
// key's placement — directory bits, home position, match filter — comes
// from the top tagBits of its hash, which are the entry's own top bits,
// so a rebuild never hashes and never touches a key: it moves words.
//
// Not safe for concurrent use; the window's lock covers it.
type dedupTable struct {
	dir   []*dedupSeg // 1<<depth entries
	depth uint8
	spare *dedupSeg // zeroed; the next rebuild's destination, so a compaction allocates nothing

	// Slot instances are numbered in creation order. insts[i] is instance
	// base+i; instances below base are all retired. Ids wrap at 2^32
	// (136 years of one-second slots) and skip 0. An id only finds an
	// instance's chunk list; no entry holds one.
	base  uint32
	insts []dedupInst

	// chunks is every key chunk the table holds, each on one list: a live
	// instance's, in claim order, or the free list, which new keys draw
	// from before a chunk is allocated. An entry's position is its key's
	// chunk index << chunkShift | offset, which bounds the pool at
	// maxChunks chunks, 2^posBits keys; a claim past it fails.
	chunks []keyChunk
	free   int32 // head of the free list, -1 when it is empty
}

// dedupInst is one slot instance: whether it is live, and the first and
// last of the chunks its keys fill (-1 before it has claimed one).
type dedupInst struct {
	live       bool
	head, tail int32
}

// keyChunk is one chunk of the key pool, the chunk after it on its list
// (-1 ends a list), and its tenure: whether it is on a live instance's
// list, its generation, and how many keys it holds in this generation.
type keyChunk struct {
	keys *[chunkKeys]netflow.PackedKey
	next int32
	n    uint16
	gen  uint8
	live bool
}

const (
	// segSize is a segment's entry count, the unit of every reclaim and
	// growth step: 8 KiB, a few microseconds to rebuild under the lock.
	segSize = 1 << 10
	segMask = segSize - 1
	// segLimit is how many entries, live or dead, a segment may hold
	// before it is rebuilt: at 3/4 full a linear probe for an absent key
	// still averages about one cache line of entries.
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

	// An entry is tag << tagShift | generation << posBits | position.
	// posBits bounds the key pool at 2^28 keys (8 GiB of them); the tag
	// is the hash's top 28 bits. A segment's keys share the tag's top
	// depth bits and home on its low 10, so once the directory is deeper
	// than 18 bits, from about 2^27 keys, they home on half of the
	// segment's positions or fewer and probes lengthen.
	posBits   = 28
	posMask   = 1<<posBits - 1
	tagShift  = posBits + 8
	maxChunks = 1 << (posBits - chunkShift)
)

// dedupSeg is one open-addressed segment of 8-byte entries; 0 is an
// entry no key has ever occupied, which ends a probe. The array is
// allocated apart so it is an exact allocator size class and
// pointer-free.
type dedupSeg struct {
	depth uint8
	used  int32 // entries != 0
	ent   *[segSize]uint64
}

func newDedupSeg() *dedupSeg {
	return &dedupSeg{ent: new([segSize]uint64)}
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

// claim's outcomes.
const (
	claimNew  = iota // the key is recorded under the claiming instance
	claimDup         // a live instance already holds the key
	claimFull        // the key is new, but the key pool is at its bound
)

// init empties the table, releasing every segment and key chunk.
func (t *dedupTable) init() {
	*t = dedupTable{dir: []*dedupSeg{newDedupSeg()}, spare: newDedupSeg(), base: 1, free: -1}
}

// open registers a new slot instance and returns its id.
func (t *dedupTable) open() uint32 {
	if t.base+uint32(len(t.insts)) == 0 {
		t.insts = append(t.insts, dedupInst{}) // burn id 0
	}
	t.insts = append(t.insts, dedupInst{live: true, head: -1, tail: -1})
	return t.base + uint32(len(t.insts)) - 1
}

// retire marks an instance evicted: from here on its entries are absent,
// and its chunks go to the front of the free list.
func (t *dedupTable) retire(inst uint32) {
	in := &t.insts[inst-t.base]
	if in.head >= 0 {
		for c := in.head; c >= 0; c = t.chunks[c].next {
			t.chunks[c].live = false
		}
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

// live reports whether entry m names a key a live instance holds: its
// chunk is live, in the entry's generation, and filled past its offset.
func (t *dedupTable) live(m uint64) bool {
	p := uint32(m) & posMask
	c := &t.chunks[p>>chunkShift]
	return c.live && c.gen == uint8(m>>posBits) && uint16(p&chunkMask) < c.n
}

// key returns the key at entry m's position.
func (t *dedupTable) key(m uint64) *netflow.PackedKey {
	p := uint32(m) & posMask
	return &t.chunks[p>>chunkShift].keys[p&chunkMask]
}

// claim reports whether a live instance already holds hk's key; if none
// does, it records the key under inst, or reports claimFull when the key
// pool has no room left. A key occupies at most one genuine entry: the
// probe runs to the end of the key's path before anything is written,
// and the new entry takes the first dead one on the way.
func (t *dedupTable) claim(hk *hashedKey, inst uint32) int {
	tag := hk.hash >> tagShift
	for {
		seg := t.dir[hk.hash>>(64-t.depth)]
		i, free := uint32(tag)&segMask, -1
		for {
			m := seg.ent[i]
			if m == 0 {
				break
			}
			if m>>tagShift == tag && t.live(m) && *t.key(m) == hk.key {
				return claimDup
			}
			if free < 0 && !t.live(m) {
				free = int(i)
			}
			i = (i + 1) & segMask
		}
		if free < 0 && seg.used == segLimit {
			t.rebuild(seg, hk.hash)
			continue
		}
		ref, ok := t.push(inst, &hk.key)
		if !ok {
			return claimFull
		}
		if free >= 0 {
			i = uint32(free)
		} else {
			seg.used++
		}
		seg.ent[i] = tag<<tagShift | ref
		return claimNew
	}
}

// push appends k to inst's key list and returns its generation and pool
// position as an entry's low bits, taking a chunk from the free list, or
// allocating one, when the instance's last chunk is full. It fails when
// that needs a chunk past maxChunks.
func (t *dedupTable) push(inst uint32, k *netflow.PackedKey) (ref uint64, ok bool) {
	in := &t.insts[inst-t.base]
	if in.tail < 0 || t.chunks[in.tail].n == chunkKeys {
		c := t.free
		if c >= 0 {
			t.free = t.chunks[c].next
		} else if len(t.chunks) < maxChunks {
			c = int32(len(t.chunks))
			t.chunks = append(t.chunks, keyChunk{keys: new([chunkKeys]netflow.PackedKey)})
		} else {
			return 0, false
		}
		ch := &t.chunks[c]
		ch.next, ch.n, ch.live = -1, 0, true
		if ch.gen++; ch.gen == 0 {
			ch.gen = 1
		}
		if in.tail < 0 {
			in.head = c
		} else {
			t.chunks[in.tail].next = c
		}
		in.tail = c
	}
	ch := &t.chunks[in.tail]
	ch.keys[ch.n] = *k
	ch.n++
	return uint64(ch.gen)<<posBits | uint64(in.tail)<<chunkShift | uint64(ch.n-1), true
}

// rebuild replaces a full segment — the one h routes to — with one
// holding only its live entries, or with two, split on the next hash
// bit, when the live entries alone leave too little room.
func (t *dedupTable) rebuild(old *dedupSeg, h uint64) {
	live := 0
	for _, m := range old.ent {
		if m != 0 && t.live(m) {
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
	bit := uint64(1) << 63 >> old.depth // the hash bit, and entry bit, a split tells its halves apart by
	for _, m := range old.ent {
		if m == 0 || !t.live(m) {
			continue
		}
		dst := lo
		if hi != lo && m&bit != 0 {
			dst = hi
		}
		j := uint32(m>>tagShift) & segMask
		for dst.ent[j] != 0 {
			j = (j + 1) & segMask
		}
		dst.ent[j] = m
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
	clear(old.ent[:])
	old.used = 0
	t.spare = old
}

// appendKeys appends the keys live instance inst holds to dst, in the
// order it claimed them.
func (t *dedupTable) appendKeys(dst []netflow.PackedKey, inst uint32) []netflow.PackedKey {
	for c := t.insts[inst-t.base].head; c >= 0; c = t.chunks[c].next {
		dst = append(dst, t.chunks[c].keys[:t.chunks[c].n]...)
	}
	return dst
}
