package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/traces"
)

// dedupModel is the dedup table's reference: the instance each key was
// last claimed under, and each live instance's keys in claim order.
type dedupModel struct {
	owner   map[netflow.PackedKey]uint32
	claimed map[uint32][]netflow.PackedKey
}

func newDedupModel() *dedupModel {
	return &dedupModel{owner: map[netflow.PackedKey]uint32{}, claimed: map[uint32][]netflow.PackedKey{}}
}

func (m *dedupModel) open(tab *dedupTable) uint32 {
	inst := tab.open()
	m.claimed[inst] = []netflow.PackedKey{}
	return inst
}

func (m *dedupModel) retire(tab *dedupTable, inst uint32) {
	tab.retire(inst)
	delete(m.claimed, inst)
}

// claim claims hk under inst in tab and fails unless the table answers
// as the model does: a duplicate exactly when a live instance holds the
// key.
func (m *dedupModel) claim(t *testing.T, where string, tab *dedupTable, hk hashedKey, inst uint32) {
	t.Helper()
	owner, known := m.owner[hk.key]
	_, live := m.claimed[owner]
	want := claimNew
	if known && live {
		want = claimDup
	}
	if got := tab.claim(&hk, inst); got != want {
		t.Fatalf("%s: claim(%x) = %d, model says %d (new %d, duplicate %d)", where, hk.key, got, want, claimNew, claimDup)
	}
	if want == claimNew {
		m.owner[hk.key] = inst
		m.claimed[inst] = append(m.claimed[inst], hk.key)
	}
}

// seqKey is the n-th key of the dedup table tests.
func seqKey(n uint32) hashedKey {
	return hashKey(netflow.FlowKey{
		SrcAddr: netip.AddrFrom4([4]byte{10, 0, 0, 1}), DstAddr: netip.AddrFrom4([4]byte{10, 0, 0, 2}), Sequence: n,
	}.Pack())
}

// TestDedupTableMatchesModel runs the table against the model through
// growth (splits, directory doublings), retirement, dead entries reused
// by the next keys on their paths (including a dead key claimed again,
// now new) and compaction, and checks after every phase that the table's
// live entries and its key lists hold exactly the live keys
// (checkDedupTable). A chunk is taken at most once a round, so in 60
// rounds no generation wraps and no stale entry may read live.
func TestDedupTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab dedupTable
	tab.init()
	model := newDedupModel()
	var insts []uint32
	next := uint32(0)
	for round := 0; round < 60; round++ {
		where := fmt.Sprintf("round %d", round)
		inst := model.open(&tab)
		insts = append(insts, inst)
		for i := 0; i < 3000; i++ {
			n := next
			if rng.Intn(3) == 0 && next > 0 {
				n = uint32(rng.Intn(int(next))) // a key seen before: live, or dead and now new again
			} else {
				next++
			}
			model.claim(t, where, &tab, seqKey(n), inst)
		}
		// Retire out of order now and then, like a clock that stepped.
		for len(insts) > 4 || (len(insts) > 1 && rng.Intn(4) == 0) {
			i := 0
			if rng.Intn(5) == 0 {
				i = rng.Intn(len(insts))
			}
			model.retire(&tab, insts[i])
			insts = append(insts[:i], insts[i+1:]...)
		}
		if stale := checkDedupTable(t, where, &tab, model.claimed); stale != 0 {
			t.Fatalf("%s: %d stale entries read live, and no generation has wrapped", where, stale)
		}
	}
	if tab.depth < 3 {
		t.Fatalf("directory depth %d: the run never grew the table", tab.depth)
	}
	// Dead entries must not pile up: four live instances of at most 3 000
	// keys each fit in 12 000/(segSize/4) segments however long the run.
	if max := 12000 / (segSize / 4); len(tab.dir) > 2*max {
		t.Fatalf("%d directory entries for ≤ 12 000 live keys; want ≤ %d", len(tab.dir), 2*max)
	}
	// Nor may key chunks: each live instance holds at most 3 000/chunkKeys
	// of them, rounded up, and a retired one's are reused.
	if max := 5 * (3000/chunkKeys + 1); len(tab.chunks) > max {
		t.Fatalf("%d key chunks for ≤ 5 live instances; want ≤ %d", len(tab.chunks), max)
	}
}

// TestDedupGenerationWrap takes one key chunk through 260 tenures — one
// instance at a time, each claiming one key, so chunk 0 is taken every
// time — while entries of its first tenure stay behind in a segment
// nothing rebuilds. At tenure 256 the chunk's 8-bit generation is its
// first tenure's again. Then k0's stale entry points past the new fill
// and k0 is claimed fresh; f2's and f3's stale entries read live, each
// pointing at another key, and answer nothing. The model is the judge
// throughout. A table without the fill check answers k0 as a duplicate;
// one without the chunk-live check answers f1 as one at tenure 2, before
// its chunk is taken again.
func TestDedupGenerationWrap(t *testing.T) {
	var tab dedupTable
	tab.init()
	model := newDedupModel()
	// Four keys whose home positions are at least four apart, so no probe
	// for one passes another's entry.
	var keys []hashedKey
	home := func(hk hashedKey) int { return int(hk.hash>>tagShift) & segMask }
	for n := uint32(0); len(keys) < 4; n++ {
		hk := seqKey(n)
		if !slices.ContainsFunc(keys, func(k hashedKey) bool {
			d := (home(hk) - home(k)) & segMask
			return d < 4 || d > segSize-4
		}) {
			keys = append(keys, hk)
		}
	}
	f1, f2, f3, k0 := keys[0], keys[1], keys[2], keys[3]
	seg := tab.dir[0]

	first := model.open(&tab)
	for _, hk := range keys { // positions 0–3 of chunk 0, generation 1
		model.claim(t, "tenure 1", &tab, hk, first)
	}
	model.retire(&tab, first)
	stale0 := seg.ent[home(k0)]
	if stale0>>tagShift != k0.hash>>tagShift || uint32(stale0)&posMask != 3 || uint8(stale0>>posBits) != 1 {
		t.Fatalf("k0's entry is %016x; want its tag over generation 1, position 3", stale0)
	}
	for tenure := 2; tenure <= 260; tenure++ {
		where := fmt.Sprintf("tenure %d", tenure)
		inst := model.open(&tab)
		model.claim(t, where, &tab, f1, inst) // new: its last instance is retired
		wantGen := uint8(tenure)
		if tenure >= 256 {
			wantGen++ // generations skip 0
		}
		if c := tab.chunks[0]; c.n != 1 || c.gen != wantGen {
			t.Fatalf("%s: chunk 0 holds %d keys at generation %d, want 1 at %d", where, c.n, c.gen, wantGen)
		}
		if tenure == 256 {
			if seg.ent[home(k0)] != stale0 {
				t.Fatalf("%s: k0's stale entry is gone; the test needs it to survive the wrap", where)
			}
			model.claim(t, where, &tab, k0, inst) // new: its stale entry points past the fill
			// f2's entry (position 1) now reads live, and points at k0.
			if stale := checkDedupTable(t, where+", k0 claimed", &tab, model.claimed); stale != 1 {
				t.Fatalf("%s: %d stale entries read live after k0's claim, want f2's", where, stale)
			}
			for _, hk := range []hashedKey{f2, f3, k0, f2, f3} { // new, new, then duplicates
				model.claim(t, where, &tab, hk, inst)
			}
			if stale := checkDedupTable(t, where+", f2 and f3 claimed", &tab, model.claimed); stale != 2 {
				t.Fatalf("%s: %d stale entries read live, want f2's and f3's", where, stale)
			}
		} else if stale := checkDedupTable(t, where, &tab, model.claimed); stale != 0 {
			t.Fatalf("%s: %d stale entries read live", where, stale)
		}
		model.retire(&tab, inst)
	}
	if tab.depth != 0 || tab.dir[0] != seg || len(tab.chunks) != 1 {
		t.Fatalf("depth %d, %d key chunks, segment rebuilt %v: the run did not take one chunk round its generations in one segment",
			tab.depth, len(tab.chunks), tab.dir[0] != seg)
	}
}

// TestDedupKeyPoolBound: positions are never wrapped. A window whose key
// pool is at its bound counts a new key as dropped, files no entry for
// it and no aggregate, and so drops its resend too.
func TestDedupKeyPoolBound(t *testing.T) {
	w := mustWindow(t, time.Minute, 4)
	now := time.Unix(1_700_000_000, 0)
	w.now = func() time.Time { return now }
	w.seen.chunks = make([]keyChunk, maxChunks) // every chunk on no list: none is free
	for i := 1; i <= 2; i++ {
		w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
		if records, dups, dropped, _ := w.Stats(); records != i || dups != 0 || dropped != i {
			t.Fatalf("after %d records: %d records, %d duplicates, %d dropped; want each dropped", i, records, dups, dropped)
		}
	}
	if used, aggs := w.seen.dir[0].used, w.Aggregates(); used != 0 || len(aggs) != 0 {
		t.Fatalf("%d table entries, %d aggregates for keys the pool had no room for", used, len(aggs))
	}
}

// checkDedupTable fails unless tab holds exactly the keys of claimed
// (live instance → its keys in claim order), and returns how many stale
// entries read live. Each live instance's key list is its keys in claim
// order, in live chunks of a nonzero generation filled in order; every
// key chunk is on exactly one list, a live instance's or the free list,
// whose chunks are not live. An entry that reads live points at a live
// instance's key and is genuine when it carries that key's tag and sits
// in the segment the tag routes to; each live key has one genuine entry.
// A second one at the same position, or an entry carrying another key's
// tag, is stale: written in an earlier tenure whose generation the chunk
// has wrapped back to.
func checkDedupTable(t *testing.T, where string, tab *dedupTable, claimed map[uint32][]netflow.PackedKey) (stale int) {
	t.Helper()
	onList := make([]bool, len(tab.chunks))
	mark := func(c int32) {
		if onList[c] {
			t.Fatalf("%s: key chunk %d is on two lists", where, c)
		}
		onList[c] = true
	}
	held := map[uint32]bool{} // pool positions of live keys
	for inst, keys := range claimed {
		if got := tab.appendKeys(nil, inst); !slices.Equal(got, keys) {
			t.Fatalf("%s: instance %d lists %d keys, claimed %d (or in another order)", where, inst, len(got), len(keys))
		}
		in := tab.insts[inst-tab.base]
		last, left := int32(-1), len(keys)
		for c := in.head; c >= 0; c = tab.chunks[c].next {
			mark(c)
			ch := &tab.chunks[c]
			if n := min(left, chunkKeys); !ch.live || ch.gen == 0 || int(ch.n) != n {
				t.Fatalf("%s: instance %d's chunk %d (live %v, generation %d) holds %d keys; want live, generation ≥ 1, %d",
					where, inst, c, ch.live, ch.gen, ch.n, n)
			}
			for o := uint32(0); o < uint32(ch.n); o++ {
				held[uint32(c)<<chunkShift|o] = true
			}
			left -= int(ch.n)
			last = c
		}
		if left != 0 || last != in.tail {
			t.Fatalf("%s: instance %d's list does not end at its tail after its %d keys", where, inst, len(keys))
		}
	}
	for c := tab.free; c >= 0; c = tab.chunks[c].next {
		mark(c)
		if tab.chunks[c].live {
			t.Fatalf("%s: free key chunk %d is live", where, c)
		}
	}
	if i := slices.Index(onList, false); i >= 0 {
		t.Fatalf("%s: key chunk %d is on no list", where, i)
	}
	genuine := map[uint32]bool{}
	for i := 0; i < len(tab.dir); {
		seg := tab.dir[i]
		span := 1 << (tab.depth - seg.depth)
		for _, m := range seg.ent {
			if m == 0 {
				continue
			}
			if !tab.live(m) {
				continue
			}
			p := uint32(m) & posMask
			if !held[p] {
				t.Fatalf("%s: entry %016x reads live at a position no live instance holds", where, m)
			}
			hk := hashKey(*tab.key(m), true)
			if hk.hash>>tagShift != m>>tagShift || genuine[p] {
				stale++
				continue
			}
			if d := int(hk.hash >> (64 - tab.depth)); d < i || d >= i+span {
				t.Fatalf("%s: key %x sits in the segment of directory entries %d–%d, its hash routes to %d", where, *tab.key(m), i, i+span-1, d)
			}
			genuine[p] = true
		}
		i += span
	}
	if len(genuine) != len(held) {
		t.Fatalf("%s: %d keys have a live entry, live instances hold %d", where, len(genuine), len(held))
	}
	return stale
}

// TestWindowForgetsEvictedSlotOnClockStepBack pins slot instances: a slot
// evicted at cur = 13 stays forgotten when the clock steps back and a
// new slot is created at the same index.
func TestWindowForgetsEvictedSlotOnClockStepBack(t *testing.T) {
	w := mustWindow(t, time.Minute, 3)
	at := func(slot int64) time.Time { return time.Unix(0, slot*int64(time.Minute)) }
	now := at(10)
	w.now = func() time.Time { return now }
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
	now = at(13) // slot 10 ages out
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(1, 1)})
	now = at(10) // the clock steps back: slot 10 is inside the window ending here again
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
	if _, dups, _, live := w.Stats(); dups != 0 || live != 2 {
		t.Fatalf("duplicates = %d, live slots = %d; want the evicted slot's key counted as new (0, 2)", dups, live)
	}
	// And the new slot 10 dedups like any other.
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
	if _, dups, _, _ := w.Stats(); dups != 1 {
		t.Fatalf("duplicates = %d after a resend into the re-created slot, want 1", dups)
	}
}

// TestWindowEmptySlotSurvives: a datagram whose records are all
// duplicates still creates its slot, and the slot exports with no keys.
func TestWindowEmptySlotSurvives(t *testing.T) {
	w := mustWindow(t, time.Minute, 4)
	now := time.Unix(1_700_000_000, 0)
	w.now = func() time.Time { return now }
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
	now = now.Add(time.Minute)
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
	if _, _, _, live := w.Stats(); live != 2 {
		t.Fatalf("live slots = %d, want 2", live)
	}
	st := w.Export()
	if len(st.Slots) != 2 || len(st.Slots[1].Seen) != 0 || st.Slots[1].Seen == nil {
		t.Fatalf("exported slots %+v, want a second slot with an empty, non-nil key list", st.Slots)
	}
}

// TestWindowDrainReleasesTable: the table keeps its high-water size while
// any slot is live and is given back whole, key chunks and all, once the
// window drains.
func TestWindowDrainReleasesTable(t *testing.T) {
	l := newIngestLoad(t, 2, 100)
	if len(l.w.seen.dir) < 4 {
		t.Fatalf("directory has %d entries after 6 000 keys; the load did not grow the table", len(l.w.seen.dir))
	}
	now := l.w.now().Add(time.Hour)
	l.w.now = func() time.Time { return now }
	if _, _, _, live := l.w.Stats(); live != 0 || len(l.w.seen.dir) != 1 || l.w.seen.dir[0].used != 0 || len(l.w.seen.chunks) != 0 {
		t.Fatalf("after draining: %d live slots, %d directory entries, %d key chunks", live, len(l.w.seen.dir), len(l.w.seen.chunks))
	}
	l.w.Ingest(netflow.Header{}, l.loaded[0])
	if _, dups, _, _ := l.w.Stats(); dups != 0 {
		t.Fatalf("%d duplicates on re-ingest into a drained window", dups)
	}
}

// TestWindowRotationReusesKeyChunks: a window rotating through its slots
// at a steady rate files each new slot's keys in the chunks the slot it
// replaced gave back, so once warm it allocates no key chunk per slot.
func TestWindowRotationReusesKeyChunks(t *testing.T) {
	const slots, perSlot = 4, 50 // 1 500 keys, three chunks, a slot
	l := newIngestLoad(t, slots, perSlot)
	warm := len(l.w.seen.chunks)
	if want := slots * (perSlot*netflow.MaxRecordsPerPacket/chunkKeys + 1); warm != want {
		t.Fatalf("%d key chunks for %d slots of %d keys, want %d", warm, slots, perSlot*netflow.MaxRecordsPerPacket, want)
	}
	recs := l.datagram()
	now := l.w.now()
	l.w.now = func() time.Time { return now }
	for s := 1; s <= 3*slots; s++ {
		now = now.Add(time.Minute)
		for d := 0; d < perSlot; d++ {
			l.fill(recs)
			l.w.Ingest(netflow.Header{}, recs)
		}
		if got := len(l.w.seen.chunks); got != warm {
			t.Fatalf("slot %d of the rotation: %d key chunks, want the warm window's %d", s, got, warm)
		}
	}
	if _, dups, _, live := l.w.Stats(); dups != 0 || live != slots {
		t.Fatalf("%d duplicates, %d live slots: the rotation did not run as claimed", dups, live)
	}
}

// TestDedupHeapPerKey is the dedup table's memory budget: heap bytes per
// live key, entries and keys together, for one instance of random keys.
// At 100 000 keys the segments have just split (the table at its
// emptiest, 8-byte entries over fill ≈ 0.4); at 177 000, the ingest
// window of the benchmark's fresh_keys workload, they are ≈ 0.68 full.
func TestDedupHeapPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates more bytes for the same objects")
	}
	for _, c := range []struct {
		keys int
		max  float64
	}{{100_000, 54}, {177_000, 47}} {
		rng := rand.New(rand.NewSource(int64(c.keys)))
		keys := make([]hashedKey, c.keys)
		for i := range keys {
			var k netflow.PackedKey
			rng.Read(k[:])
			keys[i] = hashKey(k, true)
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		tab := new(dedupTable)
		tab.init()
		inst := tab.open()
		for i := range keys {
			if tab.claim(&keys[i], inst) != claimNew {
				t.Fatalf("random key %d claimed twice", i)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(tab)
		runtime.KeepAlive(keys) // or its release offsets the table
		perKey := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(c.keys)
		t.Logf("%d keys: %.1f heap bytes per key, %d segments", c.keys, perKey, len(tab.dir))
		if perKey > c.max {
			t.Errorf("%d keys cost %.1f heap bytes each, budget %g", c.keys, perKey, c.max)
		}
	}
}

// TestImportRejectsUnpackableKeys: a dedup address that is neither IPv4
// nor absent cannot have been written by Export and must not be
// truncated into something else; nor may one key be listed twice.
func TestImportRejectsUnpackableKeys(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	state := func(keys ...netflow.FlowKey) WindowState {
		return WindowState{SlotNanos: int64(time.Minute), NumSlots: 4,
			Slots: []SlotState{{Index: now.UnixNano() / int64(time.Minute), Seen: keys}}}
	}
	v4 := netflow.FlowKey{SrcAddr: netip.MustParseAddr("10.0.0.1"), DstAddr: netip.MustParseAddr("10.0.0.2")}
	v6 := v4
	v6.DstAddr = netip.MustParseAddr("2001:db8::1")
	mapped := v4
	mapped.SrcAddr = netip.MustParseAddr("::ffff:10.0.0.1")
	w := mustWindow(t, time.Minute, 4)
	w.SetClock(func() time.Time { return now })
	if err := w.Import(state(v4, netflow.FlowKey{})); err != nil {
		t.Fatalf("IPv4 and zero-address keys: %v", err)
	}
	for name, st := range map[string]WindowState{"IPv6": state(v6), "4-in-6": state(mapped)} {
		if err := w.Import(st); err == nil || !strings.Contains(err.Error(), "not IPv4") {
			t.Errorf("import of an %s dedup key: %v, want a not-IPv4 error", name, err)
		}
	}
	if err := w.Import(state(v4, v4)); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("import of a repeated dedup key: %v, want an error", err)
	}
}

// keyFromWire decodes 48 record bytes the way the collector does and
// optionally blanks an address, covering every key an ingest path or an
// imported checkpoint can hold. The record packs as its key does.
func keyFromWire(t *testing.T, rec []byte, blank byte) netflow.FlowKey {
	t.Helper()
	d := make([]byte, netflow.HeaderSize+netflow.RecordSize)
	binary.BigEndian.PutUint16(d[0:], netflow.Version)
	binary.BigEndian.PutUint16(d[2:], 1)
	copy(d[netflow.HeaderSize:], rec)
	_, recs, err := netflow.DecodePacketInto(d, make([]netflow.Record, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := &recs[0]
	if blank&1 != 0 {
		r.SrcAddr = netip.Addr{}
	}
	if blank&2 != 0 {
		r.DstAddr = netip.Addr{}
	}
	k := netflow.KeyOf(*r)
	pk, okk := k.Pack()
	if pr, okr := netflow.PackRecord(r); pr != pk || okr != okk {
		t.Fatalf("PackRecord(%+v) = %x, %v; its key packs to %x, %v", *r, pr, okr, pk, okk)
	}
	return k
}

// flowKeyLess is the field-by-field order over dedup keys that Export's
// bytewise sort of packed keys must reproduce. netip.Addr.Compare orders
// by family then bytes.
func flowKeyLess(a, b netflow.FlowKey) bool {
	if c := a.SrcAddr.Compare(b.SrcAddr); c != 0 {
		return c < 0
	}
	if c := a.DstAddr.Compare(b.DstAddr); c != 0 {
		return c < 0
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.First != b.First {
		return a.First < b.First
	}
	if a.Last != b.Last {
		return a.Last < b.Last
	}
	if a.Octets != b.Octets {
		return a.Octets < b.Octets
	}
	return a.Sequence < b.Sequence
}

func checkPackedPair(t *testing.T, a, b netflow.FlowKey) {
	t.Helper()
	pa, ok := a.Pack()
	if !ok || pa.Unpack() != a {
		t.Fatalf("Pack(%+v) = %x, %v; unpacks to %+v", a, pa, ok, pa.Unpack())
	}
	pb, ok := b.Pack()
	if !ok || pb.Unpack() != b {
		t.Fatalf("Pack(%+v) = %x, %v; unpacks to %+v", b, pb, ok, pb.Unpack())
	}
	if pa[len(pa)-1] != 0 {
		t.Fatalf("Pack(%+v) = %x: last byte set", a, pa)
	}
	c := bytes.Compare(pa[:], pb[:])
	if (c < 0) != flowKeyLess(a, b) || (c > 0) != flowKeyLess(b, a) {
		t.Fatalf("bytes.Compare = %d but flowKeyLess(a,b) = %v, (b,a) = %v for\n a %+v\n b %+v",
			c, flowKeyLess(a, b), flowKeyLess(b, a), a, b)
	}
}

// TestPackedKeyProperty: packing round-trips and preserves the export
// order, on random wire records that differ in one field at a time as
// well as everywhere.
func TestPackedKeyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := make([]byte, netflow.RecordSize), make([]byte, netflow.RecordSize)
	for i := 0; i < 20000; i++ {
		rng.Read(a)
		copy(b, a)
		switch rng.Intn(3) {
		case 0:
			rng.Read(b)
		case 1:
			b[rng.Intn(len(b))] ^= 1 << rng.Intn(8)
		}
		ka := keyFromWire(t, a, byte(rng.Intn(16)))
		kb := keyFromWire(t, b, byte(rng.Intn(16)))
		checkPackedPair(t, ka, kb)
	}
	if _, ok := (netflow.FlowKey{SrcAddr: netip.MustParseAddr("::1")}).Pack(); ok {
		t.Error("an IPv6 key packed")
	}
}

func FuzzPackedKey(f *testing.F) {
	f.Add(make([]byte, netflow.RecordSize), bytes.Repeat([]byte{0xff}, netflow.RecordSize), byte(0))
	f.Add(bytes.Repeat([]byte{1}, netflow.RecordSize), bytes.Repeat([]byte{1}, netflow.RecordSize), byte(6))
	f.Fuzz(func(t *testing.T, a, b []byte, blank byte) {
		if len(a) < netflow.RecordSize || len(b) < netflow.RecordSize {
			return
		}
		ka := keyFromWire(t, a, blank)
		kb := keyFromWire(t, b, blank>>2)
		checkPackedPair(t, ka, kb)
	})
}

// ingestLoad is the ingest benchmarks' and the allocation gate's input:
// a window of slots live slots, each preloaded with perSlot datagrams of
// 30 records over 200 buckets, and a clock parked in the newest slot.
type ingestLoad struct {
	w      *Window
	loaded [][]netflow.Record // every preloaded datagram
	tmpl   netflow.Record
	seq    uint32
}

func (l *ingestLoad) datagram() []netflow.Record {
	recs := make([]netflow.Record, netflow.MaxRecordsPerPacket)
	l.fill(recs)
	return recs
}

// fill overwrites recs with records no window has seen.
func (l *ingestLoad) fill(recs []netflow.Record) {
	for i := range recs {
		l.seq++
		recs[i] = l.tmpl
		recs[i].SrcAS, recs[i].First = uint16(l.seq), l.seq>>16
		recs[i].DstAddr = netip.AddrFrom4([4]byte{10, 2, byte(l.seq % 200), 1})
	}
}

func newIngestLoad(tb testing.TB, slots, perSlot int) *ingestLoad {
	w, err := NewWindow(traces.AggregateKey, time.Minute, slots)
	if err != nil {
		tb.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	w.now = func() time.Time { return now }
	l := &ingestLoad{w: w, tmpl: testRecord(0, 100)}
	for s := 0; s < slots; s++ {
		if s > 0 {
			now = now.Add(time.Minute)
		}
		for d := 0; d < perSlot; d++ {
			recs := l.datagram()
			w.Ingest(netflow.Header{}, recs)
			l.loaded = append(l.loaded, recs)
		}
	}
	if _, _, _, live := w.Stats(); live != slots {
		tb.Fatalf("preload left %d live slots, want %d", live, slots)
	}
	return l
}

// TestWindowIngestAllocs is the allocation gate on the ingest hot path:
// once the table has grown and the slot's buckets exist, a 30-record
// datagram allocates nothing, whether its records are fresh or
// duplicates.
func TestWindowIngestAllocs(t *testing.T) {
	// One slot of 30 000 keys has aged out of a two-slot window, so the
	// table is grown and the fresh keys below take over dead entries and
	// the key chunks it gave back — the steady state of a rotating window.
	l := newIngestLoad(t, 2, 1000)
	now := l.w.now().Add(time.Minute)
	l.w.now = func() time.Time { return now }
	recs := l.datagram()
	for i := 0; i < 7; i++ { // the new slot and all its 200 buckets
		l.fill(recs)
		l.w.Ingest(netflow.Header{}, recs)
	}
	fresh := testing.AllocsPerRun(200, func() {
		l.fill(recs)
		l.w.Ingest(netflow.Header{}, recs)
	})
	dup := testing.AllocsPerRun(200, func() {
		l.w.Ingest(netflow.Header{}, recs)
	})
	if fresh != 0 || dup != 0 {
		t.Fatalf("allocations per 30-record datagram: %v fresh, %v duplicate; want 0 and 0", fresh, dup)
	}
	if records, dups, _, _ := l.w.Stats(); dups != 30*201 || records != 60000+30*(7+201+201) {
		t.Fatalf("records = %d, duplicates = %d: the gate did not exercise what it claims", records, dups)
	}
}

// TestFeedAllocs gates tierd's -stdin ingest (netflow.Feed into the
// window) at no allocation per datagram: Feed over a 100-packet stream
// into a warm window allocates no more than over the stream's first
// packet alone — the reader's buffers, made once per Feed, and nothing
// per packet.
func TestFeedAllocs(t *testing.T) {
	l := newIngestLoad(t, 1, 100)
	var stream bytes.Buffer
	wr := netflow.NewWriter(&stream, netflow.Header{})
	for _, recs := range l.loaded {
		if err := wr.Write(recs...); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	all := stream.Bytes()
	first := all[:netflow.HeaderSize+netflow.MaxRecordsPerPacket*netflow.RecordSize]
	feed := func(b []byte) {
		if _, err := netflow.Feed(l.w, bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	feed(all)
	many := testing.AllocsPerRun(20, func() { feed(all) })
	one := testing.AllocsPerRun(20, func() { feed(first) })
	if many > one {
		t.Fatalf("Feed allocates %v objects over 100 datagrams and %v over one: %.2f per datagram, want 0",
			many, one, (many-one)/99)
	}
	if _, dups, _, _ := l.w.Stats(); dups != 30*(100*22+21) {
		t.Fatalf("duplicates = %d: the gate did not feed what it claims", dups)
	}
}

// BenchmarkWindowIngest times the ingest hot path, one 30-record
// datagram per op, at ten live slots of 6 000 keys each: fresh is a
// datagram of new flow keys onto existing buckets, dup is a datagram the
// window has already counted, drawn from all ten slots.
func BenchmarkWindowIngest(b *testing.B) {
	perRec := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*netflow.MaxRecordsPerPacket), "ns/rec")
	}
	b.Run("fresh", func(b *testing.B) {
		l := newIngestLoad(b, 10, 200)
		recs := l.datagram()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.fill(recs)
			l.w.Ingest(netflow.Header{}, recs)
		}
		perRec(b)
	})
	b.Run("dup", func(b *testing.B) {
		l := newIngestLoad(b, 10, 200)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.w.Ingest(netflow.Header{}, l.loaded[i*7%len(l.loaded)])
		}
		perRec(b)
	})
}

// BenchmarkUDPIngestReaders measures the full receive path — loopback
// UDP, batched reads, decode, the one window's apply — at one reader and
// at GOMAXPROCS SO_REUSEPORT readers, fed by eight exporter sockets so
// the kernel's 4-tuple steering spreads datagrams over the readers.
// Every reader applies under the window's one lock, so only receive and
// decode can overlap; this sweep is what says whether that buys
// anything. fresh sends records no window has seen, dup re-sends
// preloaded ones. The sender runs in this process and competes with the
// readers for CPUs. Sends go in bursts with a drain barrier, so a full
// socket buffer fails the run instead of silently shrinking the work.
func BenchmarkUDPIngestReaders(b *testing.B) {
	readers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		readers = append(readers, n)
	}
	const exporters, burst = 8, 128
	for _, mode := range []string{"fresh", "dup"} {
		for _, n := range readers {
			b.Run(fmt.Sprintf("%s/readers=%d", mode, n), func(b *testing.B) {
				l := newIngestLoad(b, 10, 200)
				srv, err := netflow.NewCollectorServerOpts("127.0.0.1:0", l.w,
					netflow.ServerOptions{Sockets: n, RcvBuf: 4 << 20})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				conns := make([]net.Conn, exporters)
				for i := range conns {
					if conns[i], err = net.Dial("udp", srv.Addr()); err != nil {
						b.Fatal(err)
					}
					defer conns[i].Close()
				}
				recs := make([]netflow.Record, netflow.MaxRecordsPerPacket)
				pkt := make([]byte, 0, netflow.HeaderSize+netflow.MaxRecordsPerPacket*netflow.RecordSize)
				records0, _, _, _ := l.w.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dgram := recs
					if mode == "fresh" {
						l.fill(recs)
					} else {
						dgram = l.loaded[i%len(l.loaded)]
					}
					if pkt, err = netflow.AppendPacket(pkt[:0], netflow.Header{}, dgram); err != nil {
						b.Fatal(err)
					}
					if _, err := conns[i%exporters].Write(pkt); err != nil {
						b.Fatal(err)
					}
					if (i+1)%burst == 0 || i+1 == b.N {
						awaitPackets(b, srv, i+1)
					}
				}
				// A reader counts a datagram before it applies it.
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Microsecond) {
					records, _, _, _ := l.w.Stats()
					if records-records0 == b.N*netflow.MaxRecordsPerPacket {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("window counted %d records, want %d", records-records0, b.N*netflow.MaxRecordsPerPacket)
					}
				}
				b.StopTimer()
				if s := b.Elapsed().Seconds(); s > 0 {
					b.ReportMetric(float64(b.N)*netflow.MaxRecordsPerPacket/s, "records/s")
				}
			})
		}
	}
}

// awaitPackets waits until srv has received n datagrams, polling at a
// finer grain than Drain's millisecond so the wait does not swamp a
// burst's work.
func awaitPackets(b *testing.B, srv *netflow.CollectorServer, n int) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got, _ := srv.Stats(); got >= n {
			return
		}
		if time.Now().After(deadline) {
			got, _ := srv.Stats()
			b.Fatalf("received %d of %d datagrams (socket drops %d)", got, n, srv.SocketDrops())
		}
		time.Sleep(20 * time.Microsecond)
	}
}
