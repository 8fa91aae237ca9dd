package netflow

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"
)

func TestUDPExportCollectRoundTrip(t *testing.T) {
	c := NewCollector(StringKey(func(r Record) string { return r.DstAddr.String() }))
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
	got, _, _ := c.Stats()
	if got != 75 {
		t.Fatalf("collector saw %d records, want 75", got)
	}
	packets, bad := srv.Stats()
	if packets != 3 || bad != 0 {
		t.Fatalf("server stats = (%d, %d), want (3, 0)", packets, bad)
	}
}

func TestUDPMultipleExporters(t *testing.T) {
	// Several "routers" export the same records concurrently; the
	// collector must dedup across them, as in the multi-router capture.
	c := NewCollector(StringKey(func(r Record) string { return r.DstAddr.String() }))
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
	aggs := c.Aggregates()
	if len(aggs) != 1 || aggs[0].Octets != 5000 {
		t.Fatalf("aggregates = %+v, want single 5000-octet bucket", aggs)
	}
	_, dups, _ := c.Stats()
	if dups != routers-1 {
		t.Fatalf("duplicates = %d, want %d", dups, routers-1)
	}
}

func TestCollectorServerCountsBadDatagrams(t *testing.T) {
	c := NewCollector(StringKey(func(r Record) string { return "x" }))
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
	records, _, _ := c.Stats()
	if records != 0 {
		t.Fatalf("corrupt datagram reached the collector: %d records", records)
	}
}

func TestCollectorServerCloseIdempotent(t *testing.T) {
	c := NewCollector(StringKey(func(r Record) string { return "x" }))
	srv, err := NewCollectorServer("127.0.0.1:0", c)
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
	if _, err := NewCollectorServer("256.0.0.1:99999", NewCollector(StringKey(func(Record) string { return "" }))); err == nil {
		t.Error("expected error for bad address")
	}
}

func TestExporterErrors(t *testing.T) {
	if _, err := NewExporter("256.0.0.1:1", Header{}); err == nil {
		t.Error("expected error for bad address")
	}
}
