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
// shards so ingest scales with cores: each record is routed by a hash of
// its dedup flow key, so every copy of a cross-router duplicate lands in
// the same shard and per-shard dedup sets are globally exact. Reads
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
}

var _ netflow.Sink = (*ShardedWindow)(nil)

// partition holds one Deal call's per-shard record buffers.
type partition struct {
	bufs [][]netflow.Record
}

// NewShardedWindow creates a window of slots slots of slotDur each,
// partitioned across shards shards (1 = the plain single-lock window).
func NewShardedWindow(keyFn netflow.AggregateKeyFunc, slotDur time.Duration, slots, shards int) (*ShardedWindow, error) {
	if shards < 1 {
		return nil, errors.New("stream: need at least one shard")
	}
	sw := &ShardedWindow{
		slotDur:  slotDur,
		numSlots: slots,
		now:      time.Now,
	}
	for i := 0; i < shards; i++ {
		w, err := NewWindow(keyFn, slotDur, slots)
		if err != nil {
			return nil, err
		}
		sw.shards = append(sw.shards, w)
	}
	sw.parts.New = func() any {
		return &partition{bufs: make([][]netflow.Record, shards)}
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

// shardHash is FNV-1a over the canonical bytes of a flow key. FNV is
// cheap, allocation-free, and mixes the low bits well enough that the
// modulo spread across small shard counts is near-uniform.
func shardHash(k netflow.FlowKey) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	src, dst := k.SrcAddr.As16(), k.DstAddr.As16()
	for _, b := range src {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range dst {
		h = (h ^ uint64(b)) * prime64
	}
	for _, v := range [...]uint32{
		uint32(k.SrcPort)<<16 | uint32(k.DstPort), uint32(k.Proto),
		k.First, k.Last, k.Octets, k.Sequence,
	} {
		h = (h ^ uint64(v&0xff)) * prime64
		h = (h ^ uint64(v>>8&0xff)) * prime64
		h = (h ^ uint64(v>>16&0xff)) * prime64
		h = (h ^ uint64(v>>24&0xff)) * prime64
	}
	return h
}

// ShardOf returns the shard a record routes to. Duplicates share a flow
// key, hence a hash, hence a shard — which is what keeps per-shard
// dedup exact.
func (sw *ShardedWindow) ShardOf(r netflow.Record) int {
	return int(shardHash(netflow.KeyOf(r)) % uint64(len(sw.shards)))
}

// Deal partitions recs by shard and invokes fn once per non-empty
// sub-batch (shard 0 receives an empty call when recs is empty, so a
// datagram's slot-creation side effect is preserved). The sub-slices
// are pooled: fn must not retain them past its return. The durable sink
// uses Deal directly so it can pair each sub-batch's WAL append with
// its shard apply under one per-shard lock.
func (sw *ShardedWindow) Deal(recs []netflow.Record, fn func(shard int, recs []netflow.Record)) {
	if len(sw.shards) == 1 || len(recs) == 0 {
		fn(0, recs)
		return
	}
	p := sw.parts.Get().(*partition)
	for i := range p.bufs {
		p.bufs[i] = p.bufs[i][:0]
	}
	for _, r := range recs {
		s := sw.ShardOf(r)
		p.bufs[s] = append(p.bufs[s], r)
	}
	for i, b := range p.bufs {
		if len(b) > 0 {
			fn(i, b)
		}
	}
	sw.parts.Put(p)
}

// Ingest processes one export packet (netflow.Sink). The arrival
// instant is taken once, so every sub-batch of the datagram lands in
// the same slot across shards.
func (sw *ShardedWindow) Ingest(h netflow.Header, recs []netflow.Record) {
	sw.IngestAt(sw.now(), h, recs)
}

// IngestAt is Ingest with an explicit arrival instant (WAL replay).
func (sw *ShardedWindow) IngestAt(ts time.Time, h netflow.Header, recs []netflow.Record) {
	sw.Deal(recs, func(shard int, sub []netflow.Record) {
		sw.shards[shard].IngestAt(ts, h, sub)
	})
}

// IngestShardAt applies a pre-partitioned sub-batch to one shard. The
// caller (the durable sink) is responsible for having routed recs with
// ShardOf/Deal.
func (sw *ShardedWindow) IngestShardAt(shard int, ts time.Time, h netflow.Header, recs []netflow.Record) {
	sw.shards[shard].IngestAt(ts, h, recs)
}

// Aggregates merges every shard's live aggregates into the batch
// collector's output shape. All shards are evicted against one shared
// instant so a shard that went quiet cannot contribute stale slots.
func (sw *ShardedWindow) Aggregates() []netflow.Aggregate {
	cur := sw.slotIndex(sw.now())
	var m netflow.AggregateMerge
	for _, sh := range sw.shards {
		sh.mergeInto(&m, cur)
	}
	return m.Sorted()
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
	slots := make(map[int64]*SlotState)
	for _, sh := range sw.shards {
		part := sh.exportAt(cur)
		st.Records += part.Records
		st.Duplicates += part.Duplicates
		st.Dropped += part.Dropped
		for _, ss := range part.Slots {
			m, ok := slots[ss.Index]
			if !ok {
				cp := ss
				slots[ss.Index] = &cp
				continue
			}
			m.Seen = append(m.Seen, ss.Seen...)
			m.Aggs = mergeAggLists(m.Aggs, ss.Aggs)
		}
	}
	idxs := make([]int64, 0, len(slots))
	for idx := range slots {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		ss := slots[idx]
		sort.Slice(ss.Seen, func(i, j int) bool { return flowKeyLess(ss.Seen[i], ss.Seen[j]) })
		sort.Slice(ss.Aggs, func(i, j int) bool { return ss.Aggs[i].Key < ss.Aggs[j].Key })
		st.Slots = append(st.Slots, *ss)
	}
	return st
}

// mergeAggLists merges two per-slot aggregate lists by bucket key,
// summing volumes and keeping the canonical minimum sample.
func mergeAggLists(a, b []netflow.Aggregate) []netflow.Aggregate {
	byKey := make(map[string]int, len(a))
	for i := range a {
		byKey[a[i].Key] = i
	}
	for _, x := range b {
		i, ok := byKey[x.Key]
		if !ok {
			byKey[x.Key] = len(a)
			a = append(a, x)
			continue
		}
		a[i].Octets += x.Octets
		a[i].Records += x.Records
		a[i].MergeSample(x)
	}
	return a
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
			i := int(shardHash(key) % uint64(n))
			s := at(i)
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
