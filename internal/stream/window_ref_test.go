package stream

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
)

// refWindow is the window as it was before the window-wide dedup table:
// one map[netflow.FlowKey] set per slot, probed slot by slot. It is kept
// as the differential oracle for Window, ShardedWindow and the batch
// collector — slower, and obviously right about what a slot forgets when
// it is evicted. Its slots are keyed by bucket name, as the window's were
// before bucket codes.
type refWindow struct {
	rule     netflow.BucketRule
	slotDur  time.Duration
	numSlots int
	now      func() time.Time

	slots      map[int64]*refSlot
	records    int
	duplicates int
	dropped    int
}

type refSlot struct {
	seen map[netflow.FlowKey]struct{}
	aggs map[string]*netflow.Aggregate
}

func newRefWindow(rule netflow.BucketRule, slotDur time.Duration, slots int, now func() time.Time) *refWindow {
	return &refWindow{rule: rule, slotDur: slotDur, numSlots: slots, now: now, slots: make(map[int64]*refSlot)}
}

func (w *refWindow) slotIndex(t time.Time) int64 { return t.UnixNano() / int64(w.slotDur) }

func (w *refWindow) evict(cur int64) {
	for idx := range w.slots {
		if idx <= cur-int64(w.numSlots) {
			delete(w.slots, idx)
		}
	}
}

func (w *refWindow) Ingest(h netflow.Header, recs []netflow.Record) {
	w.IngestAt(w.now(), h, recs)
}

func (w *refWindow) IngestAt(ts time.Time, h netflow.Header, recs []netflow.Record) {
	cur := w.slotIndex(ts)
	sampling := uint64(h.SamplingInterval)
	if sampling == 0 {
		sampling = 1
	}
	w.evict(cur)
	s, ok := w.slots[cur]
	if !ok {
		s = &refSlot{seen: make(map[netflow.FlowKey]struct{}), aggs: make(map[string]*netflow.Aggregate)}
		w.slots[cur] = s
	}
	for _, r := range recs {
		w.records++
		key := netflow.KeyOf(r)
		if w.seen(key) {
			w.duplicates++
			continue
		}
		s.seen[key] = struct{}{}
		bucket := bucketName(w.rule, r)
		if bucket == "" {
			w.dropped++
			continue
		}
		agg, ok := s.aggs[bucket]
		if !ok {
			agg = netflow.NewAggregate(bucket, &r)
			s.aggs[bucket] = agg
		} else {
			agg.TakeSample(&r)
		}
		agg.Octets += uint64(r.Octets) * sampling
		agg.Records++
	}
}

func (w *refWindow) seen(key netflow.FlowKey) bool {
	for _, s := range w.slots {
		if _, dup := s.seen[key]; dup {
			return true
		}
	}
	return false
}

func (w *refWindow) Aggregates() []netflow.Aggregate {
	w.evict(w.slotIndex(w.now()))
	var m netflow.AggregateMerge
	for _, s := range w.slots {
		for _, a := range s.aggs {
			m.Add(a)
		}
	}
	return m.SortedInto(nil)
}

func (w *refWindow) Stats() (records, duplicates, dropped, liveSlots int) {
	w.evict(w.slotIndex(w.now()))
	return w.records, w.duplicates, w.dropped, len(w.slots)
}

func (w *refWindow) Export() WindowState {
	w.evict(w.slotIndex(w.now()))
	st := WindowState{
		SlotNanos:  int64(w.slotDur),
		NumSlots:   w.numSlots,
		Records:    w.records,
		Duplicates: w.duplicates,
		Dropped:    w.dropped,
		Slots:      make([]SlotState, 0, len(w.slots)),
	}
	idxs := make([]int64, 0, len(w.slots))
	for idx := range w.slots {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		s := w.slots[idx]
		ss := SlotState{
			Index: idx,
			Seen:  make([]netflow.FlowKey, 0, len(s.seen)),
			Aggs:  make([]netflow.Aggregate, 0, len(s.aggs)),
		}
		for key := range s.seen {
			ss.Seen = append(ss.Seen, key)
		}
		sort.Slice(ss.Seen, func(i, j int) bool { return flowKeyLess(ss.Seen[i], ss.Seen[j]) })
		for _, a := range s.aggs {
			ss.Aggs = append(ss.Aggs, *a)
		}
		sort.Slice(ss.Aggs, func(i, j int) bool { return ss.Aggs[i].Key < ss.Aggs[j].Key })
		st.Slots = append(st.Slots, ss)
	}
	return st
}

// diffStream is one seeded random walk over everything the window's
// contract covers: fresh records, cross-router duplicates inside a slot
// and across slots, duplicates of keys whose slot has aged out, records
// with no bucket, empty and all-duplicate datagrams, out-of-order
// IngestAt instants, and clock steps forward (inside and past the
// window) and backward.
type diffStream struct {
	rng     *rand.Rand
	slotDur time.Duration
	slots   int
	now     time.Time
	sent    [][]netflow.Record // every datagram so far, to draw duplicates from
	seq     uint32
}

func (d *diffStream) record() netflow.Record {
	d.seq++
	r := netflow.Record{
		// Second octet 9 has no bucket (shardKeyFn); 16 sources × 8
		// destinations otherwise.
		SrcAddr:  netip.AddrFrom4([4]byte{10, byte(8 + d.rng.Intn(3)), byte(d.rng.Intn(16) << 4), 1}),
		DstAddr:  netip.AddrFrom4([4]byte{10, 2, byte(d.rng.Intn(8)), byte(d.rng.Intn(4))}),
		SrcPort:  uint16(d.rng.Intn(3)),
		DstPort:  443,
		Proto:    6,
		First:    d.seq / 7,
		Last:     d.seq / 5,
		Octets:   uint32(1 + d.rng.Intn(1000)),
		SrcAS:    uint16(d.seq),
		Input:    uint16(d.rng.Intn(4)),
		Output:   uint16(d.rng.Intn(4)),
		Packets:  1,
		TCPFlags: 0x10,
	}
	return r
}

// datagram draws the next datagram: mostly fresh records with earlier
// ones mixed in, sometimes a verbatim resend, sometimes nothing at all.
func (d *diffStream) datagram() []netflow.Record {
	switch p := d.rng.Intn(20); {
	case p == 0:
		return nil
	case p < 4 && len(d.sent) > 0:
		return d.sent[d.rng.Intn(len(d.sent))]
	}
	recs := make([]netflow.Record, 1+d.rng.Intn(netflow.MaxRecordsPerPacket))
	for i := range recs {
		if d.rng.Intn(4) == 0 && len(d.sent) > 0 {
			if old := d.sent[d.rng.Intn(len(d.sent))]; len(old) > 0 {
				recs[i] = old[d.rng.Intn(len(old))]
				recs[i].Input = uint16(d.rng.Intn(4)) // another router's copy
				continue
			}
		}
		recs[i] = d.record()
	}
	d.sent = append(d.sent, recs)
	return recs
}

// stepClock moves the live clock: usually a fraction of a slot, now and
// then a few slots, past the whole window, or backward.
func (d *diffStream) stepClock() {
	span := time.Duration(d.slots) * d.slotDur
	switch p := d.rng.Intn(40); {
	case p == 0:
		d.now = d.now.Add(span + time.Duration(d.rng.Int63n(int64(span))))
	case p < 3:
		d.now = d.now.Add(-time.Duration(d.rng.Int63n(int64(span/2 + d.slotDur))))
	case p < 8:
		d.now = d.now.Add(time.Duration(d.rng.Int63n(int64(3 * d.slotDur))))
	default:
		d.now = d.now.Add(time.Duration(d.rng.Int63n(int64(d.slotDur / 3))))
	}
}

// TestWindowMatchesReference drives the window and the per-slot-map
// implementation it replaced with the same random stream and requires
// them to agree — aggregates, counters and exported state — after every
// step, and an exported state to import into an equal window that then
// carries on in step.
func TestWindowMatchesReference(t *testing.T) {
	for _, slots := range []int{1, 10} {
		for _, shards := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("slots=%d/shards=%d/seed=%d", slots, shards, seed), func(t *testing.T) {
					diffRun(t, slots, shards, seed)
				})
			}
		}
	}
}

// FuzzWindowMatchesReference is TestWindowMatchesReference at any seed
// and any geometry of 1–12 slots and 1–4 shards.
func FuzzWindowMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(9), uint8(3))
	f.Add(int64(3), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, slots, shards uint8) {
		diffRun(t, 1+int(slots)%12, 1+int(shards)%4, seed)
	})
}

func diffRun(t *testing.T, slots, shards int, seed int64) {
	const slotDur = time.Minute
	d := &diffStream{
		rng:     rand.New(rand.NewSource(seed)),
		slotDur: slotDur,
		slots:   slots,
		now:     time.Unix(1_700_000_000, 0),
	}
	clock := func() time.Time { return d.now }
	ref := newRefWindow(shardKeyFn, slotDur, slots, clock)
	newSUT := func() *ShardedWindow {
		sw := mustSharded(t, shardKeyFn, slotDur, slots, shards)
		sw.SetClock(clock)
		return sw
	}
	sut := newSUT()
	span := time.Duration(slots) * slotDur
	for step := 0; step < 600; step++ {
		d.stepClock()
		recs := d.datagram()
		h := netflow.Header{SamplingInterval: uint16(d.rng.Intn(3))}
		switch p := d.rng.Intn(10); {
		case p < 6:
			ref.Ingest(h, recs)
			sut.Ingest(h, recs)
		default:
			// A logged instant behind the clock, as WAL replay supplies. One
			// ahead of it is fair game for a single window only: shards
			// evict when touched, so they agree with one window at reads
			// made on the live clock, not before.
			ts := d.now.Add(-time.Duration(d.rng.Int63n(int64(span + 2*slotDur))))
			if shards == 1 && p == 9 {
				ts = d.now.Add(time.Duration(d.rng.Int63n(int64(span))))
			}
			ref.IngestAt(ts, h, recs)
			sut.IngestAt(ts, h, recs)
		}
		if got, want := sut.Aggregates(), ref.Aggregates(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: aggregates diverge:\n got %+v\nwant %+v", step, got, want)
		}
		gr, gd, gx, gl := sut.Stats()
		wr, wd, wx, wl := ref.Stats()
		if gr != wr || gd != wd || gx != wx || gl != wl {
			t.Fatalf("step %d: stats (%d,%d,%d,%d), reference (%d,%d,%d,%d)", step, gr, gd, gx, gl, wr, wd, wx, wl)
		}
		st := sut.Export()
		if want := ref.Export(); !reflect.DeepEqual(st, want) {
			t.Fatalf("step %d: exported state diverges:\n got %+v\nwant %+v", step, st, want)
		}
		if step%25 == 24 {
			again := newSUT()
			if err := again.Import(st); err != nil {
				t.Fatalf("step %d: import of own export: %v", step, err)
			}
			if back := again.Export(); !reflect.DeepEqual(back, st) {
				t.Fatalf("step %d: Import(Export()) does not round-trip:\n got %+v\nwant %+v", step, back, st)
			}
			sut = again // the restored window must also behave like the original from here on
		}
	}
	if _, dups, dropped, _ := ref.Stats(); dups == 0 || dropped == 0 {
		t.Fatalf("stream exercised %d duplicates and %d drops; want both", dups, dropped)
	}
}
