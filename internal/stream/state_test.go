package stream

import (
	"encoding/json"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/traces"
)

// statePacket builds an export packet with two records for src>dst
// pairs derived from i.
func statePacket(i int) (netflow.Header, []netflow.Record) {
	h := netflow.Header{Count: 2, SamplingInterval: 1, UnixSecs: uint32(1700000000 + i)}
	recs := []netflow.Record{
		{
			SrcAddr: netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i%200)}),
			DstAddr: netip.AddrFrom4([4]byte{192, 168, 0, byte(1 + i%100)}),
			Octets:  uint32(1000 + i), Packets: 2,
			SrcPort: uint16(1024 + i), DstPort: 443, Proto: 6, SrcAS: uint16(i),
		},
		{
			SrcAddr: netip.AddrFrom4([4]byte{10, 0, 1, byte(1 + i%200)}),
			DstAddr: netip.AddrFrom4([4]byte{192, 168, 1, byte(1 + i%100)}),
			Octets:  uint32(700 + i), Packets: 1,
			SrcPort: 80, DstPort: uint16(2048 + i), Proto: 17, SrcAS: uint16(i + 1),
		},
	}
	return h, recs
}

// newStateWindow builds a 4-slot hourly window on a frozen clock.
func newStateWindow(t *testing.T, at time.Time) *Window {
	t.Helper()
	w, err := NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	w.SetClock(func() time.Time { return at })
	return w
}

func TestWindowExportImportRoundTrip(t *testing.T) {
	at := time.Unix(1700000000, 0)
	w := newStateWindow(t, at)
	for i := 0; i < 50; i++ {
		h, recs := statePacket(i)
		// Spread across three slots, including a duplicate packet.
		w.IngestAt(at.Add(-time.Duration(i%3)*time.Hour), h, recs)
	}
	h0, r0 := statePacket(0)
	w.IngestAt(at, h0, r0) // pure duplicate: counted, not re-aggregated

	st := w.Export()
	if len(st.Slots) != 3 {
		t.Fatalf("%d slots exported, want 3", len(st.Slots))
	}
	if st.Records != 102 || st.Duplicates != 2 {
		t.Fatalf("counters records=%d duplicates=%d, want 102/2", st.Records, st.Duplicates)
	}

	w2 := newStateWindow(t, at)
	if err := w2.Import(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w2.Aggregates(), w.Aggregates()) {
		t.Fatal("imported window's aggregates diverge")
	}
	r, d, dr, live := w2.Stats()
	if r != 102 || d != 2 || dr != 0 || live != 3 {
		t.Fatalf("imported stats %d/%d/%d/%d", r, d, dr, live)
	}
	// Export again: byte-identical state (the determinism the recovery
	// parity tests lean on).
	b1, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(w2.Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("export → import → export is not byte-identical")
	}
}

// TestExportDeterministic pins that two windows fed the same packets in
// the same order export identical bytes: Go's per-map iteration seed
// must not leak into the serialized state. (Ingest order itself is
// allowed to matter — first-record endpoint sampling is order-dependent
// in the batch collector too — which is exactly why the WAL replays
// entries in append order.)
func TestExportDeterministic(t *testing.T) {
	at := time.Unix(1700000000, 0)
	wA := newStateWindow(t, at)
	wB := newStateWindow(t, at)
	for i := 0; i < 30; i++ {
		h, recs := statePacket(i)
		wA.IngestAt(at, h, recs)
	}
	for i := 0; i < 30; i++ {
		h, recs := statePacket(i)
		wB.IngestAt(at, h, recs)
	}
	a, err := json.Marshal(wA.Export())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wB.Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("ingest order leaked into the exported state")
	}
}

func TestImportValidatesGeometry(t *testing.T) {
	at := time.Unix(1700000000, 0)
	w := newStateWindow(t, at)
	st := w.Export()

	stBadSlot := st
	stBadSlot.SlotNanos = int64(time.Minute)
	if err := w.Import(stBadSlot); err == nil {
		t.Error("slot-duration mismatch accepted")
	}
	stBadCount := st
	stBadCount.NumSlots = 8
	if err := w.Import(stBadCount); err == nil {
		t.Error("slot-count mismatch accepted")
	}
	stDup := st
	stDup.Slots = []SlotState{{Index: 1}, {Index: 1}}
	stDup.SlotNanos, stDup.NumSlots = int64(time.Hour), 4
	// Indices near zero have long since aged out relative to the frozen
	// clock, so use live ones.
	cur := at.UnixNano() / int64(time.Hour)
	stDup.Slots = []SlotState{{Index: cur}, {Index: cur}}
	if err := w.Import(stDup); err == nil {
		t.Error("duplicate slot accepted")
	}
}

// TestImportSkipsAgedSlots: a checkpoint restored after a long outage
// must not resurrect slots the window would have evicted.
func TestImportSkipsAgedSlots(t *testing.T) {
	at := time.Unix(1700000000, 0)
	w := newStateWindow(t, at)
	h, recs := statePacket(1)
	w.IngestAt(at, h, recs)
	st := w.Export()

	// Restart 6 hours later: the only slot is beyond the 4-hour window.
	w2 := newStateWindow(t, at.Add(6*time.Hour))
	if err := w2.Import(st); err != nil {
		t.Fatal(err)
	}
	if got := len(w2.Aggregates()); got != 0 {
		t.Fatalf("aged slot resurrected: %d aggregates", got)
	}
}

// TestDedupAfterImport: the restored dedup sets must keep suppressing
// duplicates of records ingested before the restart.
func TestDedupAfterImport(t *testing.T) {
	at := time.Unix(1700000000, 0)
	w := newStateWindow(t, at)
	h, recs := statePacket(7)
	w.IngestAt(at, h, recs)

	w2 := newStateWindow(t, at)
	if err := w2.Import(w.Export()); err != nil {
		t.Fatal(err)
	}
	w2.IngestAt(at.Add(time.Minute), h, recs) // same flows again, post-restart
	_, dups, _, _ := w2.Stats()
	if dups != 2 {
		t.Fatalf("duplicates after import = %d, want 2", dups)
	}
	if !reflect.DeepEqual(w2.Aggregates(), w.Aggregates()) {
		t.Fatal("re-ingested duplicates changed the aggregates")
	}
}

// TestIngestAtMatchesIngest: with the clock frozen at ts, Ingest and
// IngestAt(ts) must be indistinguishable.
func TestIngestAtMatchesIngest(t *testing.T) {
	at := time.Unix(1700000000, 0)
	wA := newStateWindow(t, at)
	wB := newStateWindow(t, at)
	for i := 0; i < 10; i++ {
		h, recs := statePacket(i)
		wA.Ingest(h, recs)
		wB.IngestAt(at, h, recs)
	}
	a, _ := json.Marshal(wA.Export())
	b, _ := json.Marshal(wB.Export())
	if string(a) != string(b) {
		t.Fatal("IngestAt(now) diverges from Ingest")
	}
}

func TestRestoreEpoch(t *testing.T) {
	var r Repricer
	r.RestoreEpoch(41)
	if got := r.epoch.Load(); got != 41 {
		t.Fatalf("epoch %d after restore, want 41", got)
	}
	r.RestoreEpoch(7) // never rewinds
	if got := r.epoch.Load(); got != 41 {
		t.Fatalf("epoch %d after lower restore, want 41", got)
	}
}

// TestImportDuplicateAggregateLastWins: a slot listing one bucket twice
// imports as the later entry alone, as assigning both into a map would,
// and exports that way, round trip after round trip.
func TestImportDuplicateAggregateLastWins(t *testing.T) {
	at := time.Unix(1700000000, 0)
	w := newStateWindow(t, at)
	for i := 0; i < 6; i++ {
		h, recs := statePacket(i)
		w.IngestAt(at, h, recs)
	}
	st := w.Export()
	aggs := st.Slots[0].Aggs
	last := aggs[0]
	last.Octets, last.Records, last.Input = 99, 1, 7
	st.Slots[0].Aggs = append(slices.Clone(aggs), last)
	want := slices.Clone(aggs)
	want[0] = last

	w = newStateWindow(t, at)
	if err := w.Import(st); err != nil {
		t.Fatal(err)
	}
	if got := w.Aggregates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregates after import\n got %+v\nwant %+v", got, want)
	}
	again := w.Export()
	if got := again.Slots[0].Aggs; !reflect.DeepEqual(got, want) {
		t.Fatalf("exported slot\n got %+v\nwant %+v", got, want)
	}
	if err := w.Import(again); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(again)
	b, _ := json.Marshal(w.Export())
	if string(a) != string(b) {
		t.Fatal("export → import → export is not byte-identical")
	}
}
