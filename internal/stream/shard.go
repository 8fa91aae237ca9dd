package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tieredpricing/internal/netflow"
)

// ShardedWindow partitions a sliding window across N private Window
// shards so ingest scales with cores: each record is routed by the hash
// of its dedup flow key — the same hash its shard's dedup table then
// probes with, computed once — so every copy of a cross-router duplicate
// lands in the same shard and per-shard dedup tables are globally exact. Reads
// (Aggregates, Export, Stats) merge the shards deterministically; the
// merge is byte-identical to a single-shard window at any shard count
// because every per-bucket operation commutes — octet sums, record
// counts, and the canonical minimum-tuple endpoint sample.
//
// Sockets and shards are deliberately decoupled: SO_REUSEPORT steers
// datagrams by UDP 4-tuple, which says nothing about the NetFlow flow
// key inside, so any reader goroutine may deliver any datagram and the
// per-record hash here does the real routing.
type ShardedWindow struct {
	shards   []*Window
	slotDur  time.Duration
	numSlots int
	now      func() time.Time
	parts    sync.Pool // *partition, reused record buffers for Deal

	// merge is Aggregates' own, as in Window; mergeMu is taken before any
	// shard's lock.
	mergeMu sync.Mutex
	merge   netflow.AggregateMerge
}

var _ netflow.Sink = (*ShardedWindow)(nil)

// partition holds one deal's per-shard record buffers and, beside each
// record, the dedup key it was routed by.
type partition struct {
	bufs [][]netflow.Record
	keys [][]hashedKey
}

// Batch is the part of one datagram bound for one shard, as DealBatches
// hands it out and IngestBatchAt applies it. It is valid only until the
// DealBatches callback returns.
type Batch struct {
	Shard   int
	Records []netflow.Record
	keys    []hashedKey // nil from a one-shard window, whose shard hashes as it applies
}

// NewShardedWindow creates a window of slots slots of slotDur each,
// partitioned across shards shards (1 = the plain single-lock window),
// bucketing records by rule.
func NewShardedWindow(rule netflow.BucketRule, slotDur time.Duration, slots, shards int) (*ShardedWindow, error) {
	if shards < 1 {
		return nil, errors.New("stream: need at least one shard")
	}
	sw := &ShardedWindow{
		slotDur:  slotDur,
		numSlots: slots,
		now:      time.Now,
	}
	for i := 0; i < shards; i++ {
		w, err := NewWindow(rule, slotDur, slots)
		if err != nil {
			return nil, err
		}
		sw.shards = append(sw.shards, w)
	}
	sw.parts.New = func() any {
		return &partition{bufs: make([][]netflow.Record, shards), keys: make([][]hashedKey, shards)}
	}
	return sw, nil
}

// SetClock replaces the time source of the wrapper and every shard.
// Call it before the first Ingest; it is not synchronized with ingest.
func (sw *ShardedWindow) SetClock(now func() time.Time) {
	if now == nil {
		return
	}
	sw.now = now
	for _, sh := range sw.shards {
		sh.SetClock(now)
	}
}

// Span is the window length: slot duration × slot count.
func (sw *ShardedWindow) Span() time.Duration {
	return sw.slotDur * time.Duration(sw.numSlots)
}

// NumShards reports the shard count.
func (sw *ShardedWindow) NumShards() int { return len(sw.shards) }

// slotIndex maps a wall-clock instant to its absolute slot number.
func (sw *ShardedWindow) slotIndex(t time.Time) int64 {
	return t.UnixNano() / int64(sw.slotDur)
}

// DealBatches partitions recs by shard — duplicates share a flow key,
// hence a hash, hence a shard, which keeps per-shard dedup exact — and
// invokes fn once per non-empty batch (shard 0 receives an empty one
// when recs is empty, so a datagram's slot-creation side effect is
// preserved). The batches are pooled: fn must not retain them past its
// return. The durable sink uses DealBatches directly so it can pair each
// batch's WAL append with its shard apply under one per-shard lock.
func (sw *ShardedWindow) DealBatches(recs []netflow.Record, fn func(Batch)) {
	if len(sw.shards) == 1 || len(recs) == 0 {
		fn(Batch{Records: recs})
		return
	}
	p := sw.parts.Get().(*partition)
	for i := range p.bufs {
		p.bufs[i], p.keys[i] = p.bufs[i][:0], p.keys[i][:0]
	}
	for i := range recs {
		r := &recs[i]
		hk := hashKey(netflow.PackRecord(r))
		s := hk.shardOf(len(sw.shards))
		p.bufs[s], p.keys[s] = append(p.bufs[s], *r), append(p.keys[s], hk)
	}
	for i, b := range p.bufs {
		if len(b) > 0 {
			fn(Batch{Shard: i, Records: b, keys: p.keys[i]})
		}
	}
	sw.parts.Put(p)
}

// Deal is DealBatches for a caller that wants only the records.
func (sw *ShardedWindow) Deal(recs []netflow.Record, fn func(shard int, recs []netflow.Record)) {
	sw.DealBatches(recs, func(b Batch) { fn(b.Shard, b.Records) })
}

// Ingest processes one export packet (netflow.Sink). The arrival
// instant is taken once, so every batch of the datagram lands in the
// same slot across shards.
func (sw *ShardedWindow) Ingest(h netflow.Header, recs []netflow.Record) {
	sw.IngestAt(sw.now(), h, recs)
}

// IngestAt is Ingest with an explicit arrival instant (WAL replay).
func (sw *ShardedWindow) IngestAt(ts time.Time, h netflow.Header, recs []netflow.Record) {
	sw.DealBatches(recs, func(b Batch) { sw.IngestBatchAt(ts, h, b) })
}

// IngestBatchAt applies one of DealBatches' batches to its shard.
func (sw *ShardedWindow) IngestBatchAt(ts time.Time, h netflow.Header, b Batch) {
	sw.shards[b.Shard].ingestAt(sw.slotIndex(ts), h, b.Records, b.keys)
}

// Aggregates merges every shard's live aggregates into the batch
// collector's output shape. All shards are evicted against one shared
// instant so a shard that went quiet cannot contribute stale slots.
func (sw *ShardedWindow) Aggregates() []netflow.Aggregate { return sw.AggregatesInto(nil) }

// AggregatesInto is Window.AggregatesInto for the merge across shards.
func (sw *ShardedWindow) AggregatesInto(dst []netflow.Aggregate) []netflow.Aggregate {
	sw.mergeMu.Lock()
	defer sw.mergeMu.Unlock()
	cur := sw.slotIndex(sw.now())
	sw.merge.Reset()
	for _, sh := range sw.shards {
		sh.mergeInto(&sw.merge, cur)
	}
	return sw.merge.SortedInto(dst)
}

// MergeHints is Window.MergeHints for the merge across shards.
func (sw *ShardedWindow) MergeHints() (hits, misses uint64) {
	sw.mergeMu.Lock()
	defer sw.mergeMu.Unlock()
	return sw.merge.Hints()
}

// Stats sums the shards' lifetime counters and counts slots live in any
// shard exactly once.
func (sw *ShardedWindow) Stats() (records, duplicates, dropped, liveSlots int) {
	cur := sw.slotIndex(sw.now())
	live := make(map[int64]struct{})
	for _, sh := range sw.shards {
		r, d, dr, idxs := sh.statsAt(cur)
		records += r
		duplicates += d
		dropped += dr
		for _, idx := range idxs {
			live[idx] = struct{}{}
		}
	}
	return records, duplicates, dropped, len(live)
}

// ShardRecords reports each shard's lifetime record count, in shard
// order — the ingest-balance signal behind the per-shard metric.
func (sw *ShardedWindow) ShardRecords() []uint64 {
	cur := sw.slotIndex(sw.now())
	out := make([]uint64, len(sw.shards))
	for i, sh := range sw.shards {
		r, _, _, _ := sh.statsAt(cur)
		out[i] = uint64(r)
	}
	return out
}

// Export snapshots the merged window into a deterministic, canonical
// WindowState: the same shard-count-agnostic shape a single-shard
// window exports, so checkpoints written at one shard count restore at
// any other. Per-slot dedup keys are disjoint across shards (hash
// routing) and aggregates merge commutatively, so the merged state is
// byte-identical to the single-shard export of the same traffic.
func (sw *ShardedWindow) Export() WindowState {
	cur := sw.slotIndex(sw.now())
	if len(sw.shards) == 1 {
		return sw.shards[0].exportAt(cur)
	}
	st := WindowState{SlotNanos: int64(sw.slotDur), NumSlots: sw.numSlots}
	type slotMerge struct {
		seen []netflow.FlowKey
		aggs netflow.AggregateMerge
	}
	slots := make(map[int64]*slotMerge)
	for _, sh := range sw.shards {
		part := sh.exportAt(cur)
		st.Records += part.Records
		st.Duplicates += part.Duplicates
		st.Dropped += part.Dropped
		for _, ss := range part.Slots {
			m, ok := slots[ss.Index]
			if !ok {
				m = &slotMerge{seen: []netflow.FlowKey{}} // empty, not nil, like a single window's
				slots[ss.Index] = m
			}
			m.seen = append(m.seen, ss.Seen...)
			for i := range ss.Aggs {
				m.aggs.Add(&ss.Aggs[i])
			}
		}
	}
	idxs := make([]int64, 0, len(slots))
	for idx := range slots {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	st.Slots = make([]SlotState, 0, len(idxs))
	for _, idx := range idxs {
		m := slots[idx]
		sort.Slice(m.seen, func(i, j int) bool { return flowKeyLess(m.seen[i], m.seen[j]) })
		st.Slots = append(st.Slots, SlotState{Index: idx, Seen: m.seen, Aggs: m.aggs.SortedInto(nil)})
	}
	return st
}

// Import replaces the window's contents with a previously exported
// canonical state, written at any shard count: dedup keys are re-hashed
// to their home shards, while the merged per-slot aggregates and the
// lifetime counters are placed wholly in shard 0 — legal because reads
// only ever see the commutative merge across shards, which cannot tell
// where a partial sum lives. Geometry mismatches are an error, exactly
// as for Window.Import.
func (sw *ShardedWindow) Import(st WindowState) error {
	if st.SlotNanos != int64(sw.slotDur) {
		return fmt.Errorf("stream: import slot duration %v does not match window %v",
			time.Duration(st.SlotNanos), sw.slotDur)
	}
	if st.NumSlots != sw.numSlots {
		return fmt.Errorf("stream: import slot count %d does not match window %d",
			st.NumSlots, sw.numSlots)
	}
	if len(sw.shards) == 1 {
		return sw.shards[0].Import(st)
	}
	have := make(map[int64]struct{}, len(st.Slots))
	for _, ss := range st.Slots {
		if _, dup := have[ss.Index]; dup {
			return fmt.Errorf("stream: import has slot %d twice", ss.Index)
		}
		have[ss.Index] = struct{}{}
	}
	n := len(sw.shards)
	parts := make([]WindowState, n)
	for i := range parts {
		parts[i] = WindowState{SlotNanos: st.SlotNanos, NumSlots: st.NumSlots}
	}
	parts[0].Records = st.Records
	parts[0].Duplicates = st.Duplicates
	parts[0].Dropped = st.Dropped
	for _, ss := range st.Slots {
		sub := make([]*SlotState, n)
		at := func(i int) *SlotState {
			if sub[i] == nil {
				parts[i].Slots = append(parts[i].Slots, SlotState{Index: ss.Index})
				sub[i] = &parts[i].Slots[len(parts[i].Slots)-1]
			}
			return sub[i]
		}
		for _, key := range ss.Seen {
			hk := hashKey(key.Pack()) // whichever shard gets a key with no packed form, its Import rejects it
			s := at(hk.shardOf(n))
			s.Seen = append(s.Seen, key)
		}
		if len(ss.Aggs) > 0 {
			at(0).Aggs = append([]netflow.Aggregate(nil), ss.Aggs...)
		}
		if sub[0] == nil && len(ss.Seen) == 0 {
			at(0) // keep empty slots (all-duplicate datagrams) alive
		}
	}
	for i, sh := range sw.shards {
		if err := sh.Import(parts[i]); err != nil {
			return err
		}
	}
	return nil
}
