package netflow

import (
	"net/netip"
	"slices"
	"strings"
	"sync"
)

// FlowKey identifies a flow record independently of which router exported
// it: two records with equal keys observed at different routers describe
// the same traffic and must be counted once (§4.1.1).
type FlowKey struct {
	SrcAddr  netip.Addr
	DstAddr  netip.Addr
	SrcPort  uint16
	DstPort  uint16
	Proto    uint8
	First    uint32
	Last     uint32
	Octets   uint32
	Sequence uint32 // exporter-assigned record index within the flow
}

// KeyOf extracts a record's dedup key. The exporting pipeline stamps a
// per-flow record sequence into SrcAS (a field the accounting pipeline
// does not otherwise need) so that distinct records of one long-lived
// flow are not mistaken for duplicates.
func KeyOf(r Record) FlowKey {
	return FlowKey{
		SrcAddr:  r.SrcAddr,
		DstAddr:  r.DstAddr,
		SrcPort:  r.SrcPort,
		DstPort:  r.DstPort,
		Proto:    r.Proto,
		First:    r.First,
		Last:     r.Last,
		Octets:   r.Octets,
		Sequence: r.FlowSequence(),
	}
}

// FlowSequence returns the per-flow record sequence number stamped by the
// exporter (carried in SrcAS).
func (r Record) FlowSequence() uint32 { return uint32(r.SrcAS) }

// SrcPrefixBits and DstPrefixBits are the widths a demand bucket masks
// its IPv4 endpoints to: the source PoP's /20 block and the destination
// /24. The collection rule (traces.AggregateKey) and the repricer's
// quote key both read them, so a quote finds the bucket its flow filled.
const (
	SrcPrefixBits = 20
	DstPrefixBits = 24
)

// BucketRule maps a record to the demand-aggregation bucket it belongs
// to — e.g. the destination /24, or an entry/exit PoP pair recovered from
// addressing — in two halves, so a collector files every record by a
// number and renders a bucket's name only when it first meets the bucket.
type BucketRule interface {
	// Code returns r's bucket as a number; false drops the record. Two
	// records share a bucket exactly when they share a code.
	Code(r *Record) (code uint64, ok bool)
	// Name appends to dst the name (Aggregate.Key) of the bucket that
	// code, a value Code returned, stands for.
	Name(dst []byte, code uint64) []byte
}

// StringKey adapts a bucketing rule that returns its key as a string,
// "" dropping the record. It numbers the names in the order it first
// meets them, under a lock of its own: a rule may be shared by windows
// that code records concurrently.
func StringKey(key func(Record) string) BucketRule {
	return &stringKey{key: key, codes: make(map[string]uint64)}
}

type stringKey struct {
	key   func(Record) string
	mu    sync.Mutex
	codes map[string]uint64
	names []string // names[code]
}

func (s *stringKey) Code(r *Record) (uint64, bool) {
	name := s.key(*r)
	if name == "" {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	code, ok := s.codes[name]
	if !ok {
		code = uint64(len(s.names))
		s.codes[name] = code
		s.names = append(s.names, name)
	}
	return code, true
}

func (s *stringKey) Name(dst []byte, code uint64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(dst, s.names[code]...)
}

// Aggregate is the accumulated demand of one aggregation bucket.
type Aggregate struct {
	// Key is the bucket identifier.
	Key string
	// Octets is the total de-duplicated, sampling-restored byte count.
	Octets uint64
	// Records is the number of distinct records accumulated.
	Records int
	// SrcAddr and DstAddr sample one record's endpoints for later
	// resolution (all records in a bucket share their resolution). The
	// sample is canonical — the minimum (SrcAddr, DstAddr, Input, Output)
	// tuple over the bucket's records — so a bucket accumulated in any
	// order, or in pieces later merged, ends with the same sample.
	SrcAddr netip.Addr
	DstAddr netip.Addr
	// Input and Output sample the SNMP interface indices.
	Input, Output uint16
}

// sampleBefore orders two endpoint-sample tuples lexicographically by
// (SrcAddr, DstAddr, Input, Output). It is the total order behind the
// canonical sample: commutative accumulation (slots, merges) needs a
// sample rule with no dependence on arrival order.
func sampleBefore(s1, d1 netip.Addr, i1, o1 uint16, s2, d2 netip.Addr, i2, o2 uint16) bool {
	if c := s1.Compare(s2); c != 0 {
		return c < 0
	}
	if c := d1.Compare(d2); c != 0 {
		return c < 0
	}
	if i1 != i2 {
		return i1 < i2
	}
	return o1 < o2
}

// NewAggregate starts bucket key's aggregate from its first record: r's
// endpoints are the sample, its volume is still to be added.
func NewAggregate(key string, r *Record) *Aggregate {
	return &Aggregate{Key: key, SrcAddr: r.SrcAddr, DstAddr: r.DstAddr, Input: r.Input, Output: r.Output}
}

// TakeSample folds r's endpoints into a's canonical sample, keeping the
// minimum tuple.
func (a *Aggregate) TakeSample(r *Record) {
	if sampleBefore(r.SrcAddr, r.DstAddr, r.Input, r.Output,
		a.SrcAddr, a.DstAddr, a.Input, a.Output) {
		a.SrcAddr, a.DstAddr, a.Input, a.Output = r.SrcAddr, r.DstAddr, r.Input, r.Output
	}
}

// MergeSample folds another partial aggregate's sample into a's, keeping
// the minimum tuple.
func (a *Aggregate) MergeSample(b Aggregate) {
	if sampleBefore(b.SrcAddr, b.DstAddr, b.Input, b.Output,
		a.SrcAddr, a.DstAddr, a.Input, a.Output) {
		a.SrcAddr, a.DstAddr, a.Input, a.Output = b.SrcAddr, b.DstAddr, b.Input, b.Output
	}
}

// AggregateMerge folds partial aggregates — one bucket's traffic split
// across window slots — into the collector's output shape: one aggregate
// per key with octets and records summed and the canonical minimum
// endpoint sample, sorted by key. Every per-key
// operation commutes, so the result is independent of the order parts
// are added in. The zero value is ready to use.
//
// A merge that is Reset and filled again — a window's, once per re-price
// — keeps the keys, their positions and their order from the last round,
// so a round costs a position check per part (a map probe where the
// caller's hint is stale), a sort of the keys it had not seen, and a
// rebuild only when a key it knew got no part.
type AggregateMerge struct {
	aggs  []Aggregate
	round []uint32         // round[i]: the round that last added to aggs[i]
	index map[string]int32 // key → position in aggs
	order []int32          // positions of aggs[:len(order)] in key order
	now   uint32           // the current round; Reset starts the next

	hits, misses uint64 // since Reset: AddAt hints that held, parts that paid the probe
}

// Reset forgets every sum and sample, and nothing else: the next round
// of Adds starts each key from its first part again.
func (m *AggregateMerge) Reset() { m.now, m.hits, m.misses = m.now+1, 0, 0 }

// Hints counts, since Reset, the parts placed by hint and by key probe.
func (m *AggregateMerge) Hints() (hits, misses uint64) { return m.hits, m.misses }

// Add folds one partial aggregate in.
func (m *AggregateMerge) Add(a *Aggregate) { m.AddAt(a, -1) }

// AddAt is Add for a caller that kept the position AddAt returned for
// this part last time. The hint is checked against the key it names — a
// compaction, another merge or no earlier round make it stale, never
// wrong — and saves the key's hash and probe when it holds.
func (m *AggregateMerge) AddAt(a *Aggregate, hint int32) int32 {
	i := hint
	if uint(i) < uint(len(m.aggs)) && m.aggs[i].Key == a.Key {
		m.hits++
	} else {
		m.misses++
		var known bool
		if i, known = m.index[a.Key]; !known {
			if m.index == nil {
				m.index = make(map[string]int32)
			}
			i = int32(len(m.aggs))
			m.index[a.Key] = i
			m.aggs = append(m.aggs, *a)
			m.round = append(m.round, m.now)
			return i
		}
	}
	t := &m.aggs[i]
	if m.round[i] != m.now {
		// The key's first part since Reset: the sums and the sample
		// start over from it, not from a round that is gone.
		m.round[i], *t = m.now, *a
		return i
	}
	t.Octets += a.Octets
	t.Records += a.Records
	t.MergeSample(*a)
	return i
}

// SortedInto returns a copy of the merged aggregates sorted by key,
// written into dst's storage when it has the room (nil: a new slice).
func (m *AggregateMerge) SortedInto(dst []Aggregate) []Aggregate {
	// Keys no part was added to since Reset have aged out: drop them, and
	// with them the kept order, which the sort below then rebuilds.
	if slices.ContainsFunc(m.round, func(r uint32) bool { return r != m.now }) {
		live := 0
		for i := range m.aggs {
			if m.round[i] != m.now {
				delete(m.index, m.aggs[i].Key)
				continue
			}
			m.index[m.aggs[i].Key] = int32(live)
			m.aggs[live], m.round[live] = m.aggs[i], m.now
			live++
		}
		clear(m.aggs[live:]) // let go of the dropped keys' strings
		m.aggs, m.round, m.order = m.aggs[:live], m.round[:live], m.order[:0]
	}
	// Sort positions, not aggregates: a swap then moves four bytes and
	// no pointers, where copying and swapping the 96-byte structs
	// themselves would be most of the sort's time. Only the positions
	// added since the last call need sorting; they merge into the kept
	// order from the back.
	byKey := func(a, b int32) int { return strings.Compare(m.aggs[a].Key, m.aggs[b].Key) }
	kept := len(m.order)
	for i := kept; i < len(m.aggs); i++ {
		m.order = append(m.order, int32(i))
	}
	fresh := slices.Clone(m.order[kept:])
	slices.SortFunc(fresh, byKey)
	for at, k, f := len(m.order)-1, kept-1, len(fresh)-1; f >= 0; at-- {
		if k >= 0 && byKey(m.order[k], fresh[f]) > 0 {
			m.order[at] = m.order[k]
			k--
		} else {
			m.order[at] = fresh[f]
			f--
		}
	}
	out := dst[:0]
	if dst == nil || cap(dst) < len(m.order) {
		// A caller that reuses its rows gets headroom, so a key set that
		// grows by one a round does not reallocate them every round.
		out = make([]Aggregate, 0, len(m.order)+cap(dst)/4)
	}
	out = out[:len(m.order)]
	for i, at := range m.order {
		out[i] = m.aggs[at]
	}
	return out
}

// DemandMbps converts a byte count accumulated over a capture window into
// megabits per second.
func DemandMbps(octets uint64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(octets) * 8 / seconds / 1e6
}
