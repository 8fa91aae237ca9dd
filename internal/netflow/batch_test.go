package netflow

import (
	"math/rand"
	"testing"
	"time"
)

// TestDecodePacketIntoAllocs pins the hot ingest path's allocation
// contract: decoding into a reused record buffer with enough capacity
// must not allocate at all.
func TestDecodePacketIntoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	recs := make([]Record, MaxRecordsPerPacket)
	for i := range recs {
		recs[i] = randRecord(r)
	}
	pkt, err := EncodePacket(Header{SamplingInterval: 1}, recs)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 0, MaxRecordsPerPacket)
	avg := testing.AllocsPerRun(200, func() {
		_, rs, err := DecodePacketInto(pkt, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != MaxRecordsPerPacket {
			t.Fatalf("decoded %d records, want %d", len(rs), MaxRecordsPerPacket)
		}
	})
	if avg != 0 {
		t.Errorf("DecodePacketInto allocates %.1f times per packet, want 0", avg)
	}
}

// TestDecodePacketIntoGrows covers the slow path: a buffer with too
// little capacity still yields a correct decode.
func TestDecodePacketIntoGrows(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = randRecord(r)
	}
	pkt, err := EncodePacket(Header{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	h, rs, err := DecodePacketInto(pkt, make([]Record, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if int(h.Count) != len(recs) || len(rs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(rs), len(recs))
	}
	h2, rs2, err := DecodePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h != h2 {
		t.Fatalf("headers diverge: %+v vs %+v", h, h2)
	}
	for i := range rs {
		if rs[i] != rs2[i] {
			t.Fatalf("record %d diverges: %+v vs %+v", i, rs[i], rs2[i])
		}
	}
}

// TestCollectorServerMultiSocket exercises the sharded receive path:
// several sockets (SO_REUSEPORT where available, shared-socket readers
// elsewhere), a sized kernel buffer, and batched reads must deliver
// every record exactly once.
func TestCollectorServerMultiSocket(t *testing.T) {
	c := &recordSink{}
	srv, err := NewCollectorServerOpts("127.0.0.1:0", c, ServerOptions{
		Sockets: 4,
		RcvBuf:  1 << 20,
		Batch:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.Sockets(); got < 1 {
		t.Fatalf("Sockets() = %d, want >= 1", got)
	}

	// 50 records per exporter → one full 30-record datagram plus a
	// 20-record flush on Close: 2 datagrams per exporter, 8 total.
	const exporters, perExporter, wantPackets = 4, 50, 8
	r := rand.New(rand.NewSource(5))
	sent := 0
	// Several exporters so REUSEPORT's 4-tuple steering spreads load.
	for e := 0; e < exporters; e++ {
		exp, err := NewExporter(srv.Addr(), Header{SamplingInterval: 1})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < perExporter/5; p++ {
			recs := make([]Record, 5)
			for i := range recs {
				recs[i] = randRecord(r)
				recs[i].SrcAS = uint16(sent) // distinct dedup stamps
				sent++
			}
			if err := exp.Export(recs...); err != nil {
				t.Fatal(err)
			}
		}
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Drain(wantPackets, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if records := len(c.records()); records != sent {
		t.Fatalf("sink saw %d records, want %d", records, sent)
	}
	// Loopback at this volume should not shed load; mostly this pins
	// that the drop probe parses /proc and never errors or goes negative.
	if drops := srv.SocketDrops(); drops != 0 {
		t.Logf("socket drops = %d (kernel shed load)", drops)
	}
}

// BenchmarkDecodePacketInto reports the per-packet decode cost on the
// reused-buffer path; allocs/op here must stay 0 (asserted by
// TestDecodePacketIntoAllocs).
func BenchmarkDecodePacketInto(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	recs := make([]Record, MaxRecordsPerPacket)
	for i := range recs {
		recs[i] = randRecord(r)
	}
	pkt, err := EncodePacket(Header{SamplingInterval: 1}, recs)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]Record, 0, MaxRecordsPerPacket)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodePacketInto(pkt, buf); err != nil {
			b.Fatal(err)
		}
	}
}
