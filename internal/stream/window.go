// Package stream holds the pipeline's one flow accumulator and the online
// half built on it (§5's deployment sketch): a sliding-window collector
// fed by the UDP NetFlow server, and a periodic repricer that re-fits the
// demand model over the live window and publishes immutable pricing
// snapshots for the serving layer. The batch pipeline (NewCollector →
// demandfit → core) computes one answer from one capture through the
// same accumulator; the repricer computes that answer continuously as
// the traffic mix shifts.
package stream

import (
	"errors"
	"sync"
	"time"

	"tieredpricing/internal/netflow"
)

// Window is the flow accumulator of §4.1.1: the last Span() of ingested
// records, sampling-restored, counted once however many routers exported
// them, and aggregated into demand buckets, with older traffic aged out
// in slot-sized steps. It implements netflow.Sink and is safe for
// concurrent ingest (core routers export independently).
//
// Time is bucketed into numSlots slots of slotDur each; a record lands in
// the slot covering its arrival time, and slots older than the window are
// dropped whole. Cross-router duplicate suppression spans all live slots
// — one window-wide table remembers which live slot first counted each
// flow key — so the window's aggregates over a fully-contained capture
// are the batch collector's (NewCollector: the same type, one slot that
// never ages out).
type Window struct {
	rule     netflow.BucketRule
	slotDur  time.Duration
	numSlots int
	now      func() time.Time // injectable for tests

	mu         sync.Mutex
	slots      map[int64]*slot // keyed by absolute slot index
	seen       dedupTable      // every live slot's dedup keys
	nameBuf    []byte          // a new bucket's name, rendered
	records    int
	duplicates int
	dropped    int

	// merge is Aggregates' own, kept from one call to the next so a
	// re-price pays for the keys that changed, not for all of them.
	// mergeMu is taken before mu, never under it.
	mergeMu sync.Mutex
	merge   netflow.AggregateMerge
}

var _ netflow.Sink = (*Window)(nil)

// slot holds one slot's partial aggregates, in a slice the merge reads
// straight through and a map from bucket code to position; inst names it
// in the dedup table, whose entries and key chunks it owns until it is
// evicted.
type slot struct {
	inst  uint32
	aggs  []slotAgg
	index map[uint64]int32
}

func newSlot(inst uint32, n int) *slot {
	return &slot{inst: inst, aggs: make([]slotAgg, 0, n), index: make(map[uint64]int32, n)}
}

// put files a under bucket code: a code the slot has not seen is
// appended, and one it has is overwritten — the last write wins, as a
// map assignment does.
func (s *slot) put(code uint64, a *netflow.Aggregate) *slotAgg {
	i, ok := s.index[code]
	if !ok {
		i = int32(len(s.aggs))
		s.aggs = append(s.aggs, slotAgg{})
		s.index[code] = i
	}
	s.aggs[i].Aggregate = *a
	return &s.aggs[i]
}

// slotAgg is one slot's share of a bucket and the position the window's
// merge last folded it at: AddAt's hint, AggregatesInto's alone to write.
type slotAgg struct {
	netflow.Aggregate
	at int32
}

// NewWindow creates a window of slots slots of slotDur each, bucketing
// records by rule.
func NewWindow(rule netflow.BucketRule, slotDur time.Duration, slots int) (*Window, error) {
	if rule == nil {
		return nil, errors.New("stream: nil bucket rule")
	}
	if slotDur <= 0 {
		return nil, errors.New("stream: slot duration must be positive")
	}
	if slots < 1 {
		return nil, errors.New("stream: need at least one slot")
	}
	w := &Window{
		rule:     rule,
		slotDur:  slotDur,
		numSlots: slots,
		now:      time.Now,
		slots:    make(map[int64]*slot),
	}
	w.seen.init()
	return w, nil
}

// NewCollector returns the batch collector: a window of one slot on a
// clock that never moves, so nothing it counts ages out and its dedup
// spans the whole capture. It panics on a nil rule, the one argument
// NewWindow could reject.
func NewCollector(rule netflow.BucketRule) *Window {
	w, err := NewWindow(rule, time.Hour, 1)
	if err != nil {
		panic(err)
	}
	w.SetClock(func() time.Time { return time.Unix(0, 0) })
	return w
}

// SetClock replaces the window's time source — fault rehearsal (empty
// window stretches driven by a deterministic clock) and tests. Call it
// before the first Ingest; it is not synchronized with ingest.
func (w *Window) SetClock(now func() time.Time) {
	if now != nil {
		w.now = now
	}
}

// Span is the window length: slot duration × slot count.
func (w *Window) Span() time.Duration {
	return w.slotDur * time.Duration(w.numSlots)
}

// slotIndex maps a wall-clock instant to its absolute slot number.
func (w *Window) slotIndex(t time.Time) int64 {
	return t.UnixNano() / int64(w.slotDur)
}

// evictLocked drops slots that have aged out of the window ending at the
// current slot cur. A slot's dedup keys go with it at the cost of one
// pass over its key chunks and one list splice (dedupTable.retire).
func (w *Window) evictLocked(cur int64) {
	for idx, s := range w.slots {
		if idx <= cur-int64(w.numSlots) {
			w.seen.retire(s.inst)
			delete(w.slots, idx)
			if len(w.slots) == 0 {
				w.seen.init() // a drained window gives its table back
			}
		}
	}
}

// Ingest processes one export packet (netflow.Sink) into the slot of the
// window's clock.
func (w *Window) Ingest(h netflow.Header, recs []netflow.Record) {
	w.ingestAt(w.slotIndex(w.now()), h, recs)
}

// ingestAt files recs into slot cur; Ingest derives cur from the live
// clock, IngestAt (WAL replay) from the logged arrival timestamp. It is
// ingest's two stages run inline, a datagram's worth of records at a
// time: prepare outside the lock, then apply under it. A Loader runs the
// same two stages on two goroutines.
func (w *Window) ingestAt(cur int64, h netflow.Header, recs []netflow.Record) {
	var buf [netflow.MaxRecordsPerPacket]hashedKey
	for {
		n := min(len(recs), len(buf))
		hks := prepare(buf[:0], recs[:n])
		w.mu.Lock()
		w.applyLocked(cur, h.SamplingInterval, recs[:n], hks)
		w.mu.Unlock()
		if recs = recs[n:]; len(recs) == 0 {
			return
		}
	}
}

// prepare is ingest's first stage: it appends each record's packed dedup
// key and its hash to dst. It reads no window state, so it runs outside
// the window's lock.
func prepare(dst []hashedKey, recs []netflow.Record) []hashedKey {
	for i := range recs {
		dst = append(dst, hashKey(netflow.PackRecord(&recs[i])))
	}
	return dst
}

// applyLocked is ingest's second stage and the pipeline's one dedup and
// sampling-restore loop, batch and online alike: it files recs, prepared
// as hks, into slot cur. The bucket code is taken here, under the lock,
// so a rule that numbers keys as it meets them (StringKey) numbers them
// in apply order. w.mu is held.
func (w *Window) applyLocked(cur int64, samplingInterval uint16, recs []netflow.Record, hks []hashedKey) {
	sampling := uint64(samplingInterval)
	if sampling == 0 {
		sampling = 1
	}
	w.evictLocked(cur)
	s, ok := w.slots[cur]
	if !ok {
		s = newSlot(w.seen.open(), 0)
		w.slots[cur] = s
	}
	for i := range recs {
		r, hk := &recs[i], &hks[i]
		w.records++
		if !hk.ok {
			w.dropped++ // not an IPv4 flow: nothing a v5 exporter sends
			continue
		}
		switch w.seen.claim(hk, s.inst) {
		case claimDup:
			w.duplicates++
			continue
		case claimFull:
			w.dropped++ // the dedup key pool is at its bound
			continue
		}
		code, ok := w.rule.Code(r)
		if !ok {
			w.dropped++
			continue
		}
		var agg *slotAgg
		if i, ok := s.index[code]; ok {
			agg = &s.aggs[i]
			agg.TakeSample(r)
		} else {
			// The slot's first record of this bucket: the one time the
			// slot renders the bucket's name.
			w.nameBuf = w.rule.Name(w.nameBuf[:0], code)
			agg = s.put(code, netflow.NewAggregate(string(w.nameBuf), r))
		}
		agg.Octets += uint64(r.Octets) * sampling
		agg.Records++
	}
}

// Aggregates merges the live slots into per-bucket aggregates sorted by
// key: octets and record counts summed across slots, endpoint samples
// merged under the canonical minimum-tuple rule. Because every
// per-bucket operation commutes — sums, counts, minimum samples — the
// merge is independent of slot order and ingest order.
func (w *Window) Aggregates() []netflow.Aggregate { return w.AggregatesInto(nil) }

// AggregatesInto is Aggregates written into dst's storage when it has
// the room: a caller that keeps its rows from one call to the next (the
// repricer) then allocates nothing for them. Aggregates is
// AggregatesInto(nil). Only the copy out of the slots runs under the
// window lock; the sort runs after it is released, so ingest never waits
// for a sort.
func (w *Window) AggregatesInto(dst []netflow.Aggregate) []netflow.Aggregate {
	w.mergeMu.Lock()
	defer w.mergeMu.Unlock()
	w.merge.Reset()
	cur := w.slotIndex(w.now())
	w.mu.Lock()
	w.evictLocked(cur)
	for _, s := range w.slots {
		for i := range s.aggs {
			a := &s.aggs[i]
			a.at = w.merge.AddAt(&a.Aggregate, a.at)
		}
	}
	w.mu.Unlock()
	return w.merge.SortedInto(dst)
}

// MergeHints reports the last Aggregates' netflow.AggregateMerge.Hints.
func (w *Window) MergeHints() (hits, misses uint64) {
	w.mergeMu.Lock()
	defer w.mergeMu.Unlock()
	return w.merge.Hints()
}

// Stats reports lifetime ingest counters (records seen, cross-router
// duplicates suppressed, records dropped because they have no key or no
// bucket or the dedup key pool is at its bound) and the number of live
// slots. Counters are lifetime, not windowed, so they are monotonic and
// exportable as Prometheus counters.
func (w *Window) Stats() (records, duplicates, dropped, liveSlots int) {
	cur := w.slotIndex(w.now())
	w.mu.Lock()
	defer w.mu.Unlock()
	w.evictLocked(cur)
	return w.records, w.duplicates, w.dropped, len(w.slots)
}
