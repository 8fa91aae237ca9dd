package netflow

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// recordSink is the Sink the transport tests feed: it keeps every record
// it is handed. Counting them once is the collector's job, not the
// transport's.
type recordSink struct {
	mu   sync.Mutex
	recs []Record
}

func (s *recordSink) Ingest(_ Header, recs []Record) {
	s.mu.Lock()
	s.recs = append(s.recs, recs...)
	s.mu.Unlock()
}

func (s *recordSink) records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs
}

func TestUDPExportCollectRoundTrip(t *testing.T) {
	c := &recordSink{}
	srv, err := NewCollectorServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	exp, err := NewExporter(srv.Addr(), Header{UnixSecs: 1000, SamplingInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	recs := make([]Record, 75) // 2 full packets + 1 partial
	for i := range recs {
		recs[i] = randRecord(r)
		recs[i].SrcAS = uint16(i) // distinct dedup stamps
	}
	if err := exp.Export(recs...); err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(c.records()); got != 75 {
		t.Fatalf("sink saw %d records, want 75", got)
	}
	packets, bad := srv.Stats()
	if packets != 3 || bad != 0 {
		t.Fatalf("server stats = (%d, %d), want (3, 0)", packets, bad)
	}
}

func TestUDPMultipleExporters(t *testing.T) {
	// Several "routers" export the same record concurrently; every copy
	// must reach the sink, whose dedup then counts it once.
	c := &recordSink{}
	srv, err := NewCollectorServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := Record{
		SrcAddr: netip.MustParseAddr("10.0.0.1"),
		DstAddr: netip.MustParseAddr("10.1.0.1"),
		Octets:  5000,
	}
	const routers = 4
	var wg sync.WaitGroup
	for i := 0; i < routers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exp, err := NewExporter(srv.Addr(), Header{SamplingInterval: 1})
			if err != nil {
				t.Error(err)
				return
			}
			if err := exp.Export(rec); err != nil {
				t.Error(err)
			}
			if err := exp.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := srv.Drain(routers, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got := c.records()
	if len(got) != routers {
		t.Fatalf("sink saw %d records, want one per router (%d)", len(got), routers)
	}
	for _, r := range got {
		if KeyOf(r) != KeyOf(rec) {
			t.Fatalf("record %+v arrived, want copies of %+v", r, rec)
		}
	}
}

func TestCollectorServerCountsBadDatagrams(t *testing.T) {
	c := &recordSink{}
	srv, err := NewCollectorServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Send garbage straight at the socket.
	conn, err := NewExporter(srv.Addr(), Header{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw, err := EncodePacket(Header{}, []Record{{
		SrcAddr: netip.MustParseAddr("1.1.1.1"),
		DstAddr: netip.MustParseAddr("2.2.2.2"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	raw[1] = 99 // corrupt the version
	if _, err := conn.conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, bad := srv.Stats(); bad != 1 {
		t.Fatalf("bad = %d, want 1", bad)
	}
	if records := len(c.records()); records != 0 {
		t.Fatalf("corrupt datagram reached the sink: %d records", records)
	}
}

func TestCollectorServerCloseIdempotent(t *testing.T) {
	srv, err := NewCollectorServer("127.0.0.1:0", &recordSink{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNewCollectorServerErrors(t *testing.T) {
	if _, err := NewCollectorServer("127.0.0.1:0", nil); err == nil {
		t.Error("expected error for nil collector")
	}
	if _, err := NewCollectorServer("256.0.0.1:99999", &recordSink{}); err == nil {
		t.Error("expected error for bad address")
	}
}

func TestExporterErrors(t *testing.T) {
	if _, err := NewExporter("256.0.0.1:1", Header{}); err == nil {
		t.Error("expected error for bad address")
	}
}
