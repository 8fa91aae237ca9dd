package stream

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/traces"
)

// ingestStreams decodes router export streams in sorted router order and
// feeds every packet to sink. Sorted order makes the first record of each
// bucket — and hence the collector's endpoint samples — deterministic, so
// window and batch collector outputs are comparable field by field.
func ingestStreams(t *testing.T, sink netflow.Sink, streams map[string][]byte) {
	t.Helper()
	routers := make([]string, 0, len(streams))
	for router := range streams {
		routers = append(routers, router)
	}
	sort.Strings(routers)
	for _, router := range routers {
		rd := netflow.NewReader(bytes.NewReader(streams[router]))
		for {
			h, recs, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			sink.Ingest(h, recs)
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

// TestWindowMatchesCollector is the aggregation half of the online/batch
// consistency story: a capture fully contained in the window must yield
// the batch collector's aggregates exactly.
func TestWindowMatchesCollector(t *testing.T) {
	ds, err := traces.EUISP(61)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}

	c := netflow.NewCollector(traces.AggregateKey)
	ingestStreams(t, c, streams)

	w := mustWindow(t, time.Hour, 4)
	ingestStreams(t, w, streams)

	if !reflect.DeepEqual(w.Aggregates(), c.Aggregates()) {
		t.Fatal("window aggregates diverge from batch collector")
	}
	cr, cd, cx := c.Stats()
	wr, wd, wx, live := w.Stats()
	if wr != cr || wd != cd || wx != cx {
		t.Errorf("window stats (%d,%d,%d) != collector stats (%d,%d,%d)", wr, wd, wx, cr, cd, cx)
	}
	if live < 1 {
		t.Errorf("live slots = %d, want >= 1", live)
	}
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
	w, err := NewWindow(func(dst []byte, _ netflow.Record) []byte { return dst }, time.Minute, 2)
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
		t.Error("expected error for nil key function")
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
