package stream

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"time"

	"tieredpricing/internal/netflow"
)

// SlotState is one window slot in exportable form: the absolute slot
// index, the slot's dedup keys, and its partial aggregates. Both lists
// are deterministically sorted, so encoding an exported state yields
// identical bytes for identical window contents — the property the
// crash-recovery parity tests compare on.
type SlotState struct {
	Index int64               `json:"index"`
	Seen  []netflow.FlowKey   `json:"seen"`
	Aggs  []netflow.Aggregate `json:"aggs"`
}

// WindowState is a complete, self-validating serialization of a Window:
// configuration (slot geometry), lifetime counters, and every live
// slot. It is the unit the checkpoint subsystem persists.
type WindowState struct {
	SlotNanos  int64       `json:"slot_nanos"`
	NumSlots   int         `json:"num_slots"`
	Records    int         `json:"records"`
	Duplicates int         `json:"duplicates"`
	Dropped    int         `json:"dropped"`
	Slots      []SlotState `json:"slots"`
}

// Export snapshots the window into a deterministic WindowState. Slots
// are emitted in ascending index order, dedup keys and aggregates in
// sorted order, so two windows with equal contents export equal states
// regardless of map iteration order or ingest interleaving.
func (w *Window) Export() WindowState {
	cur := w.slotIndex(w.now())
	w.mu.Lock()
	defer w.mu.Unlock()
	w.evictLocked(cur)
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
	slices.Sort(idxs)
	// Each slot's keys are copied out of its key list into one reused
	// buffer; packed keys sort bytewise into the export order
	// (netflow.PackedKey).
	var keys []netflow.PackedKey
	for _, idx := range idxs {
		s := w.slots[idx]
		keys = w.seen.appendKeys(keys[:0], s.inst)
		slices.SortFunc(keys, func(a, b netflow.PackedKey) int { return bytes.Compare(a[:], b[:]) })
		ss := SlotState{
			Index: idx,
			Seen:  make([]netflow.FlowKey, len(keys)),
			Aggs:  make([]netflow.Aggregate, len(s.aggs)),
		}
		for i, k := range keys {
			ss.Seen[i] = k.Unpack()
		}
		for i := range s.aggs {
			ss.Aggs[i] = s.aggs[i].Aggregate
		}
		sort.Slice(ss.Aggs, func(i, j int) bool { return ss.Aggs[i].Key < ss.Aggs[j].Key })
		st.Slots = append(st.Slots, ss)
	}
	return st
}

// Import replaces the window's contents with a previously Exported
// state. The state's slot geometry must match the window's — a window
// restored under different -slot/-window flags would silently misfile
// records, so the mismatch is an error instead. So is a dedup key the
// table cannot hold as Export wrote it: an address that is not IPv4, a
// key listed twice, or one past the key pool's bound. So is an aggregate
// the window's bucket rule would not have filed under its key, judged by
// its endpoint sample. Slots that have already aged out of the window
// (by the window's own clock) are skipped rather than resurrected.
func (w *Window) Import(st WindowState) error {
	if st.SlotNanos != int64(w.slotDur) {
		return fmt.Errorf("stream: import slot duration %v does not match window %v",
			time.Duration(st.SlotNanos), w.slotDur)
	}
	if st.NumSlots != w.numSlots {
		return fmt.Errorf("stream: import slot count %d does not match window %d",
			st.NumSlots, w.numSlots)
	}
	cur := w.slotIndex(w.now())
	w.mu.Lock()
	defer w.mu.Unlock()
	w.slots = make(map[int64]*slot, len(st.Slots))
	w.seen.init()
	w.records = st.Records
	w.duplicates = st.Duplicates
	w.dropped = st.Dropped
	// One sample record for every aggregate: a pointer handed to the rule,
	// an interface, escapes, so this costs an Import one allocation.
	var sample netflow.Record
	for _, ss := range st.Slots {
		if ss.Index <= cur-int64(w.numSlots) {
			continue // aged out while the daemon was down
		}
		if _, dup := w.slots[ss.Index]; dup {
			return fmt.Errorf("stream: import has slot %d twice", ss.Index)
		}
		s := newSlot(w.seen.open(), len(ss.Aggs))
		for _, key := range ss.Seen {
			hk := hashKey(key.Pack())
			if !hk.ok {
				return fmt.Errorf("stream: import slot %d has a dedup key that is not IPv4 (%v > %v)",
					ss.Index, key.SrcAddr, key.DstAddr)
			}
			switch w.seen.claim(&hk, s.inst) {
			case claimDup:
				return fmt.Errorf("stream: import has dedup key %+v twice", key)
			case claimFull:
				return fmt.Errorf("stream: import slot %d has more dedup keys than the table holds", ss.Index)
			}
		}
		for i := range ss.Aggs {
			a := &ss.Aggs[i]
			// Every record of a bucket has the bucket's code, so the
			// endpoint sample, one of them, has it too.
			sample.SrcAddr, sample.DstAddr, sample.Input, sample.Output = a.SrcAddr, a.DstAddr, a.Input, a.Output
			code, ok := w.rule.Code(&sample)
			if ok {
				w.nameBuf = w.rule.Name(w.nameBuf[:0], code)
			}
			if !ok || string(w.nameBuf) != a.Key {
				return fmt.Errorf("stream: import slot %d has bucket %q, which its sample (%v > %v) is not in",
					ss.Index, a.Key, a.SrcAddr, a.DstAddr)
			}
			s.put(code, a)
		}
		w.slots[ss.Index] = s
	}
	return nil
}

// IngestAt is Ingest with an explicit arrival instant: the record lands
// in the slot covering ts and eviction runs relative to ts, exactly as
// Ingest would have done had it run at ts on the live clock. WAL replay
// uses it to reproduce the original slotting decision for each logged
// datagram, which is what makes recovery byte-identical.
func (w *Window) IngestAt(ts time.Time, h netflow.Header, recs []netflow.Record) {
	w.ingestAt(w.slotIndex(ts), h, recs)
}
