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

// TestDedupTableMatchesModel runs the table against a map from key to
// owning instance through growth (splits, directory doublings),
// retirement, dead entries reused by the next keys on their paths
// (including a dead key claimed again, now new) and compaction, and
// checks after every phase that the table's live entries and its key
// lists hold exactly the live keys (checkDedupTable).
func TestDedupTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab dedupTable
	tab.init()
	model := map[netflow.PackedKey]uint32{}     // key → instance, live or not
	claimed := map[uint32][]netflow.PackedKey{} // live instance → its keys in claim order
	var insts []uint32
	key := func(n uint32) hashedKey {
		return hashKey(netflow.FlowKey{
			SrcAddr: netip.AddrFrom4([4]byte{10, 0, 0, 1}), DstAddr: netip.AddrFrom4([4]byte{10, 0, 0, 2}), Sequence: n,
		}.Pack())
	}
	next := uint32(0)
	for round := 0; round < 60; round++ {
		inst := tab.open()
		insts, claimed[inst] = append(insts, inst), []netflow.PackedKey{}
		for i := 0; i < 3000; i++ {
			n := next
			if rng.Intn(3) == 0 && next > 0 {
				n = uint32(rng.Intn(int(next))) // a key seen before: live, or dead and now new again
			} else {
				next++
			}
			hk := key(n)
			owner, known := model[hk.key]
			_, live := claimed[owner]
			wantDup := known && live
			if got := tab.claim(&hk, inst); got != wantDup {
				t.Fatalf("round %d: claim(key %d) = %v, model says %v", round, n, got, wantDup)
			}
			if !wantDup {
				model[hk.key] = inst
				claimed[inst] = append(claimed[inst], hk.key)
			}
		}
		// Retire out of order now and then, like a clock that stepped.
		for len(insts) > 4 || (len(insts) > 1 && rng.Intn(4) == 0) {
			i := 0
			if rng.Intn(5) == 0 {
				i = rng.Intn(len(insts))
			}
			tab.retire(insts[i])
			delete(claimed, insts[i])
			insts = append(insts[:i], insts[i+1:]...)
		}
		checkDedupTable(t, fmt.Sprintf("round %d", round), &tab, claimed)
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

// checkDedupTable fails unless tab's live entries are exactly the keys
// of claimed (live instance → its keys in claim order), each once, under
// its instance and tagged with its hash; every live instance's key list
// is its keys in claim order; and every key chunk is on exactly one
// list, a live instance's or the free list.
func checkDedupTable(t *testing.T, where string, tab *dedupTable, claimed map[uint32][]netflow.PackedKey) {
	t.Helper()
	entries := map[netflow.PackedKey]uint32{}
	for i := 0; i < len(tab.dir); {
		seg := tab.dir[i]
		for j, m := range seg.meta {
			if m == 0 || !tab.live(uint32(m)) {
				continue
			}
			k := *tab.key(seg.pos[j])
			if owner, twice := entries[k]; twice {
				t.Fatalf("%s: key %x has live entries under instances %d and %d", where, k, owner, uint32(m))
			}
			if hk := hashKey(k, true); uint32(hk.hash>>32) != uint32(m>>32) {
				t.Fatalf("%s: entry tagged %08x points at key %x, whose tag is %08x", where, uint32(m>>32), k, uint32(hk.hash>>32))
			}
			entries[k] = uint32(m)
		}
		i += 1 << (tab.depth - seg.depth)
	}
	onList := make([]bool, len(tab.chunks))
	mark := func(c int32) {
		if onList[c] {
			t.Fatalf("%s: key chunk %d is on two lists", where, c)
		}
		onList[c] = true
	}
	want := 0
	for inst, keys := range claimed {
		want += len(keys)
		for _, k := range keys {
			if entries[k] != inst {
				t.Fatalf("%s: key %x of live instance %d has its live entry under %d", where, k, inst, entries[k])
			}
		}
		if got := tab.appendKeys(nil, inst); !slices.Equal(got, keys) {
			t.Fatalf("%s: instance %d lists %d keys, claimed %d (or in another order)", where, inst, len(got), len(keys))
		}
		in := tab.insts[inst-tab.base]
		c := in.head
		for left := len(keys); left > 0; left -= chunkKeys {
			mark(c)
			if left <= chunkKeys && (c != in.tail || tab.chunks[c].next != -1) {
				t.Fatalf("%s: instance %d's list does not end at its tail", where, inst)
			}
			c = tab.chunks[c].next
		}
	}
	if len(entries) != want {
		t.Fatalf("%s: %d live entries, model has %d live keys", where, len(entries), want)
	}
	for c := tab.free; c >= 0; c = tab.chunks[c].next {
		mark(c)
	}
	if i := slices.Index(onList, false); i >= 0 {
		t.Fatalf("%s: key chunk %d is on no list", where, i)
	}
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
// emptiest, 12-byte entries over fill ≈ 0.4); at 177 000, the ingest
// window of the benchmark's fresh_keys workload, they are ≈ 0.68 full.
func TestDedupHeapPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates more bytes for the same objects")
	}
	for _, c := range []struct {
		keys int
		max  float64
	}{{100_000, 62}, {177_000, 52}} {
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
			if tab.claim(&keys[i], inst) {
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
