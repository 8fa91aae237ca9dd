package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/traces"
)

// ingestStreams decodes router export streams in sorted router order and
// feeds every packet to sink, so every run of a test ingests the same
// sequence.
func ingestStreams(t *testing.T, sink netflow.Sink, streams map[string][]byte) {
	t.Helper()
	routers := make([]string, 0, len(streams))
	for router := range streams {
		routers = append(routers, router)
	}
	sort.Strings(routers)
	for _, router := range routers {
		if _, err := netflow.Feed(sink, bytes.NewReader(streams[router])); err != nil {
			t.Fatal(err)
		}
	}
}

func mustWindow(t *testing.T, slotDur time.Duration, slots int) *Window {
	t.Helper()
	w, err := NewWindow(traces.AggregateKey, slotDur, slots)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCollectorMatchesReference is the aggregation half of the
// online/batch consistency story: the batch collector — the one-slot
// window every batch caller counts through — must agree with the
// per-slot-map reference, aggregates and counters, on each preset's
// NetFlow export.
func TestCollectorMatchesReference(t *testing.T) {
	for _, name := range traces.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				ds, err := traces.ByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
				if err != nil {
					t.Fatal(err)
				}
				c := NewCollector(traces.AggregateKey)
				ingestStreams(t, c, streams)
				ref := newRefWindow(traces.AggregateKey, time.Hour, 1, func() time.Time { return time.Unix(0, 0) })
				ingestStreams(t, ref, streams)

				if !reflect.DeepEqual(c.Aggregates(), ref.Aggregates()) {
					t.Fatal("collector aggregates diverge from the reference")
				}
				cr, cd, cx, cl := c.Stats()
				rr, rd, rx, rl := ref.Stats()
				if cr != rr || cd != rd || cx != rx || cl != rl {
					t.Errorf("collector stats (%d,%d,%d,%d) != reference (%d,%d,%d,%d)", cr, cd, cx, cl, rr, rd, rx, rl)
				}
				if cd == 0 {
					t.Error("the export held no cross-router duplicates to suppress")
				}
			})
		}
	}
}

// FuzzCollectorAccounting feeds the collector whatever a datagram
// decodes to (netflow's FuzzUDPDatagramPath is the decode half) and
// checks its books: every record is a duplicate, dropped or bucketed,
// and each distinct flow key's octets count once, times the sampling
// interval.
func FuzzCollectorAccounting(f *testing.F) {
	recs := []netflow.Record{
		{
			SrcAddr: netip.MustParseAddr("10.0.0.1"),
			DstAddr: netip.MustParseAddr("10.1.0.1"),
			Octets:  4096, Packets: 3, First: 1, Last: 9,
			SrcPort: 443, DstPort: 51000, Proto: 6,
		},
		{
			SrcAddr: netip.MustParseAddr("10.0.0.2"),
			DstAddr: netip.MustParseAddr("10.1.0.1"),
			Octets:  512, Packets: 1, First: 2, Last: 2, Proto: 17,
		},
	}
	unkeyed := recs[1]
	unkeyed.Proto = 0
	for _, rs := range [][]netflow.Record{recs, append(recs, recs[0]), {recs[0], unkeyed}} {
		pkt, err := netflow.EncodePacket(netflow.Header{UnixSecs: 1000, SamplingInterval: 100}, rs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pkt)
	}
	f.Fuzz(func(t *testing.T, datagram []byte) {
		h, got, err := netflow.DecodePacket(datagram)
		if err != nil {
			return
		}
		c := NewCollector(netflow.StringKey(func(r netflow.Record) string {
			if r.Proto == 0 {
				return "" // exercise the dropped path
			}
			return r.DstAddr.String()
		}))
		c.Ingest(h, got)
		records, duplicates, dropped, _ := c.Stats()
		if records != len(got) {
			t.Fatalf("collector counted %d records, ingested %d", records, len(got))
		}
		sampling := uint64(max(h.SamplingInterval, 1))
		var wantOctets uint64
		seen := make(map[netflow.FlowKey]bool)
		for _, r := range got {
			if key := netflow.KeyOf(r); !seen[key] {
				seen[key] = true
				if r.Proto != 0 {
					wantOctets += uint64(r.Octets) * sampling
				}
			}
		}
		var bucketed int
		var gotOctets uint64
		for _, a := range c.Aggregates() {
			bucketed += a.Records
			gotOctets += a.Octets
		}
		if records != duplicates+dropped+bucketed {
			t.Fatalf("%d records, but %d duplicates + %d dropped + %d bucketed", records, duplicates, dropped, bucketed)
		}
		if gotOctets != wantOctets {
			t.Fatalf("aggregated octets %d, want %d (sampling ×%d restored once per distinct key)",
				gotOctets, wantOctets, sampling)
		}
	})
}

func testRecord(seq uint32, octets uint32) netflow.Record {
	return netflow.Record{
		SrcAddr: netip.MustParseAddr("10.1.0.1"),
		DstAddr: netip.MustParseAddr("10.2.0.1"),
		SrcPort: 1234, DstPort: 443, Proto: 6,
		First: 1, Last: 2,
		Octets: octets,
		SrcAS:  uint16(seq),
	}
}

func TestWindowExpiresOldSlots(t *testing.T) {
	w := mustWindow(t, time.Minute, 3)
	now := time.Unix(1_700_000_000, 0)
	w.now = func() time.Time { return now }

	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
	if got := w.Aggregates(); len(got) != 1 || got[0].Octets != 100 {
		t.Fatalf("unexpected live aggregates %+v", got)
	}

	// Two slots later the record is still inside the 3-slot window.
	now = now.Add(2 * time.Minute)
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(1, 50)})
	if got := w.Aggregates(); len(got) != 1 || got[0].Octets != 150 {
		t.Fatalf("mid-window aggregates %+v, want merged 150 octets", got)
	}

	// Past the window, the first slot ages out and only the newer record
	// survives.
	now = now.Add(2 * time.Minute)
	if got := w.Aggregates(); len(got) != 1 || got[0].Octets != 50 {
		t.Fatalf("post-expiry aggregates %+v, want only 50 octets", got)
	}

	// After everything expires the window is empty and the original
	// record counts as new again — dedup state ages out with its slot.
	now = now.Add(10 * time.Minute)
	if got := w.Aggregates(); len(got) != 0 {
		t.Fatalf("expired window still holds %+v", got)
	}
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
	records, duplicates, _, _ := w.Stats()
	if records != 3 || duplicates != 0 {
		t.Errorf("records=%d duplicates=%d, want 3 records and no duplicates", records, duplicates)
	}
}

func TestWindowDedupSpansSlots(t *testing.T) {
	w := mustWindow(t, time.Minute, 10)
	now := time.Unix(1_700_000_000, 0)
	w.now = func() time.Time { return now }

	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
	now = now.Add(3 * time.Minute)
	// The same record re-exported by another router minutes later must be
	// suppressed as long as the original slot is live.
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 100)})
	_, duplicates, _, _ := w.Stats()
	if duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", duplicates)
	}
	if got := w.Aggregates(); len(got) != 1 || got[0].Octets != 100 {
		t.Fatalf("aggregates %+v, want single 100-octet bucket", got)
	}
}

func TestWindowSamplingRestoration(t *testing.T) {
	w := mustWindow(t, time.Minute, 2)
	w.Ingest(netflow.Header{SamplingInterval: 1000}, []netflow.Record{testRecord(0, 7)})
	if got := w.Aggregates(); len(got) != 1 || got[0].Octets != 7000 {
		t.Fatalf("aggregates %+v, want sampling-restored 7000 octets", got)
	}
}

func TestWindowDropsUnkeyedRecords(t *testing.T) {
	w, err := NewWindow(netflow.StringKey(func(netflow.Record) string { return "" }), time.Minute, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Ingest(netflow.Header{}, []netflow.Record{testRecord(0, 7)})
	_, _, dropped, _ := w.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if got := w.Aggregates(); len(got) != 0 {
		t.Errorf("unkeyed record produced aggregates %+v", got)
	}
}

func TestNewWindowValidation(t *testing.T) {
	if _, err := NewWindow(nil, time.Minute, 2); err == nil {
		t.Error("expected error for nil bucket rule")
	}
	if _, err := NewWindow(traces.AggregateKey, 0, 2); err == nil {
		t.Error("expected error for zero slot duration")
	}
	if _, err := NewWindow(traces.AggregateKey, time.Minute, 0); err == nil {
		t.Error("expected error for zero slots")
	}
}

// TestWindowConcurrentIngest exercises the ingest path from many
// goroutines under the race detector.
func TestWindowConcurrentIngest(t *testing.T) {
	w := mustWindow(t, time.Minute, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := testRecord(uint32(g*1000+i), 10)
				rec.SrcPort = uint16(g)
				w.Ingest(netflow.Header{}, []netflow.Record{rec})
				if i%10 == 0 {
					w.Aggregates()
				}
			}
		}(g)
	}
	wg.Wait()
	records, duplicates, _, _ := w.Stats()
	if records != 400 || duplicates != 0 {
		t.Errorf("records=%d duplicates=%d, want 400/0", records, duplicates)
	}
	var total uint64
	for _, a := range w.Aggregates() {
		total += a.Octets
	}
	if total != 4000 {
		t.Errorf("total octets %d, want 4000", total)
	}
}

// sinkFunc adapts a function to netflow.Sink.
type sinkFunc func(h netflow.Header, recs []netflow.Record)

func (f sinkFunc) Ingest(h netflow.Header, recs []netflow.Record) { f(h, recs) }

// TestWindowIngestRepriceQuoteRace hammers one window with concurrent
// ingest — as tierd's UDP reader and -stdin feed it — against re-prices, quotes
// and state reads under -race, then checks the end state still matches
// an identically-fed window ingested in order.
func TestWindowIngestRepriceQuoteRace(t *testing.T) {
	ds, err := traces.EUISP(81)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	// Normalize the capture so duplicate copies are byte-identical:
	// which copy of a duplicate wins the dedup race depends on arrival
	// order, so the cross-router variants in sampling interval and
	// observing interface would make byte parity depend on scheduling.
	// With identical copies the whole merge is order-independent and the
	// post-race equality check is exact.
	type datagram struct {
		h    netflow.Header
		recs []netflow.Record
	}
	var dgs []datagram
	collect := sinkFunc(func(h netflow.Header, recs []netflow.Record) {
		h.SamplingInterval = 0
		cp := make([]netflow.Record, len(recs))
		copy(cp, recs)
		for i := range cp {
			cp[i].Input = uint16(cp[i].Octets % 8)
			cp[i].Output = uint16(cp[i].First % 8)
		}
		dgs = append(dgs, datagram{h: h, recs: cp})
	})
	ingestStreams(t, collect, streams)

	w := mustWindow(t, time.Hour, 4)
	rp, err := NewRepricer(Config{
		Window:      w,
		Resolver:    &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true},
		Demand:      econ.CED{Alpha: 1.1},
		Cost:        cost.Linear{Theta: 0.2},
		P0:          ds.P0,
		Strategy:    bundling.ProfitWeighted{},
		Tiers:       3,
		DurationSec: ds.DurationSec,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}

	const ingesters = 4
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(dgs); i += ingesters {
				w.Ingest(dgs[i].h, dgs[i].recs)
			}
		}(g)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rp.Reprice(context.Background()); err != nil && !errors.Is(err, ErrEmptyWindow) {
				t.Error("reprice:", err)
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		src := netip.AddrFrom4([4]byte{10, 1, 0, 1})
		dst := netip.AddrFrom4([4]byte{10, 100, 0, 1})
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snap := rp.Current(); snap != nil {
				snap.Quote(src, dst)
			}
			w.Aggregates()
			w.Export()
			w.Stats()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	shadow := mustWindow(t, time.Hour, 4)
	for _, dg := range dgs {
		shadow.Ingest(dg.h, dg.recs)
	}
	if !reflect.DeepEqual(w.Aggregates(), shadow.Aggregates()) {
		t.Fatal("post-race aggregates diverge from the window ingested in order")
	}
}
