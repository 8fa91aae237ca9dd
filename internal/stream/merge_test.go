package stream

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/traces"
)

// oneShot merges an exported window the way Aggregates did before the
// merge was kept: a zero-value AggregateMerge fed every live slot.
func oneShot(st WindowState) []netflow.Aggregate {
	var m netflow.AggregateMerge
	for _, s := range st.Slots {
		for i := range s.Aggs {
			m.Add(&s.Aggs[i])
		}
	}
	return m.SortedInto(nil)
}

// TestKeptMergeMatchesOneShot walks a Window through everything the kept
// merge has to get right
// between two re-prices — the same keys again, a burst of new ones, keys
// that stop and leave slot by slot, a key whose minimum endpoint sample
// sits in the slot that ages out, an empty window, the clock stepping
// back and past the window, a churning key set — and after every step
// requires Aggregates to equal both a one-shot merge of the window's own
// slots and the per-slot-map reference window.
func TestKeptMergeMatchesOneShot(t *testing.T) {
	const slotDur, slots = time.Minute, 4
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	rng := rand.New(rand.NewSource(18))

	w := mustWindow(t, slotDur, slots)
	w.SetClock(clock)
	ref := newRefWindow(traces.AggregateKey, slotDur, slots, clock)

	// rec is one never-repeated record of bucket key; host picks the
	// endpoint sample it offers (lower wins).
	seq := uint32(0)
	rec := func(key int, host byte) netflow.Record {
		seq++
		return netflow.Record{
			SrcAddr: netip.AddrFrom4([4]byte{172, 16, byte(key%16) << 4, host}),
			DstAddr: netip.AddrFrom4([4]byte{10, byte(key / 4096), byte(key / 16), host}),
			Octets:  uint32(1 + rng.Intn(5000)),
			Packets: 1,
			First:   seq,
			SrcAS:   uint16(seq),
			Input:   uint16(host),
		}
	}
	steps := 0
	var last []netflow.Aggregate
	step := func(advance time.Duration, recs ...netflow.Record) {
		t.Helper()
		steps++
		now = now.Add(advance)
		h := netflow.Header{SamplingInterval: uint16(rng.Intn(3))}
		if len(recs) > 0 {
			ref.Ingest(h, recs)
			w.Ingest(h, recs)
		}
		last = ref.Aggregates()
		got := w.Aggregates()
		if !reflect.DeepEqual(got, last) {
			t.Fatalf("step %d: aggregates\n got %+v\nwant %+v (reference window)", steps, got, last)
		}
		if want := oneShot(w.Export()); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: aggregates\n got %+v\nwant %+v (one-shot merge of the same slots)", steps, got, want)
		}
	}
	keys := func(from, to int) (recs []netflow.Record) {
		for k := from; k < to; k++ {
			recs = append(recs, rec(k, byte(1+rng.Intn(250))))
		}
		return recs
	}

	for i := 0; i < 100; i++ { // the same twelve keys, every twenty seconds
		step(20*time.Second, keys(0, 12)...)
	}
	for i := 0; i < 20; i++ { // and four never-seen ones each step
		step(20*time.Second, append(keys(0, 12), keys(100+4*i, 104+4*i)...)...)
	}
	if len(last) < 12+4*3*(slots-1) { // three steps a slot: at least the last three whole slots' bursts are live
		t.Fatalf("%d aggregates after the burst", len(last))
	}
	for i := 0; i < 40; i++ { // half the keys stop; they and the burst leave slot by slot
		step(20*time.Second, keys(0, 6)...)
	}
	if len(last) != 6 {
		t.Fatalf("%d aggregates once the stopped keys aged out, want 6", len(last))
	}

	// Key 50's lowest sample arrives first and ages out first.
	sampleOf := func(key string) byte {
		for _, a := range last {
			if a.Key == key {
				return a.SrcAddr.As4()[3]
			}
		}
		t.Fatalf("step %d: no aggregate %q", steps, key)
		return 0
	}
	key50 := bucketName(traces.AggregateKey, rec(50, 1))
	step(20*time.Second, rec(50, 1))
	for i := 0; i < 20; i++ {
		step(20*time.Second, rec(50, 200))
		// Three steps a slot: host 1's slot is live for nine more steps
		// at least and twelve at most.
		switch got := sampleOf(key50); {
		case i < 3*(slots-1) && got != 1:
			t.Fatalf("step %d: key 50's sample host is %d while host 1's slot is live", steps, got)
		case i >= 3*slots-1 && got != 200:
			t.Fatalf("step %d: key 50's sample host is %d after host 1's slot aged out", steps, got)
		}
	}

	step(time.Duration(slots+1) * slotDur) // nothing live
	if len(last) != 0 {
		t.Fatalf("%d aggregates in an empty window", len(last))
	}
	for i := 0; i < 10; i++ {
		step(20*time.Second, keys(0, 12)...)
	}
	for i := 0; i < 10; i++ { // the clock steps back, into slots behind the newest
		step(-30*time.Second, keys(6, 18)...)
	}
	step(time.Hour, keys(0, 3)...) // and past the whole window
	if len(last) != 3 {
		t.Fatalf("%d aggregates after a step past the window, want 3", len(last))
	}
	for i := 0; i < 150; i++ { // a churning set: six keys, sliding by one each step
		step(30*time.Second, keys(200+i, 206+i)...)
	}
	if steps < 300 {
		t.Fatalf("schedule ran %d steps", steps)
	}
}

// TestKeptMergeConcurrentReaders: Aggregates from two goroutines while
// four ingest (the periodic tick and a caller-driven re-price can
// overlap), for the race detector and for the result once they stop.
func TestKeptMergeConcurrentReaders(t *testing.T) {
	w := mustWindow(t, time.Minute, 4)
	var ingest, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					aggs := w.Aggregates()
					for i := 1; i < len(aggs); i++ {
						if aggs[i-1].Key >= aggs[i].Key {
							t.Errorf("aggregates out of order: %q before %q", aggs[i-1].Key, aggs[i].Key)
							return
						}
					}
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		ingest.Add(1)
		go func(g int) {
			defer ingest.Done()
			for i := 0; i < 300; i++ {
				r := testRecord(uint32(g*1000+i), 10)
				r.DstAddr = netip.AddrFrom4([4]byte{10, 3, byte(i % 64), 1}) // new keys keep arriving
				w.Ingest(netflow.Header{}, []netflow.Record{r})
			}
		}(g)
	}
	ingest.Wait()
	close(stop)
	readers.Wait()
	if got, want := w.Aggregates(), oneShot(w.Export()); !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregates after concurrent reads\n got %+v\nwant %+v", got, want)
	}
}
