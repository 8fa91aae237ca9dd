package netflow

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func randRecord(r *rand.Rand) Record {
	ip := func() netip.Addr {
		return netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)),
			byte(r.Intn(256)), byte(r.Intn(256))})
	}
	return Record{
		SrcAddr: ip(), DstAddr: ip(), NextHop: ip(),
		Input: uint16(r.Intn(1 << 16)), Output: uint16(r.Intn(1 << 16)),
		Packets: r.Uint32(), Octets: r.Uint32(),
		First: r.Uint32(), Last: r.Uint32(),
		SrcPort: uint16(r.Intn(1 << 16)), DstPort: uint16(r.Intn(1 << 16)),
		TCPFlags: uint8(r.Intn(256)), Proto: uint8(r.Intn(256)), ToS: uint8(r.Intn(256)),
		SrcAS: uint16(r.Intn(1 << 16)), DstAS: uint16(r.Intn(1 << 16)),
		SrcMask: uint8(r.Intn(33)), DstMask: uint8(r.Intn(33)),
	}
}

func TestPacketRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	h := Header{
		SysUptime: 12345, UnixSecs: 1257985000, UnixNsecs: 42,
		FlowSequence: 777, EngineType: 1, EngineID: 2, SamplingInterval: 100,
	}
	recs := make([]Record, 17)
	for i := range recs {
		recs[i] = randRecord(r)
	}
	pkt, err := EncodePacket(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != HeaderSize+len(recs)*RecordSize {
		t.Fatalf("packet size %d", len(pkt))
	}
	h2, recs2, err := DecodePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	h.Count = uint16(len(recs))
	if h2 != h {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", h2, h)
	}
	for i := range recs {
		if recs2[i] != recs[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, recs2[i], recs[i])
		}
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := 1 + int(n)%MaxRecordsPerPacket
		recs := make([]Record, count)
		for i := range recs {
			recs[i] = randRecord(r)
		}
		pkt, err := EncodePacket(Header{UnixSecs: r.Uint32()}, recs)
		if err != nil {
			return false
		}
		_, got, err := DecodePacket(pkt)
		if err != nil || len(got) != count {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendPacketMatchesEncode: AppendPacket writes EncodePacket's bytes
// behind whatever the caller's buffer already holds.
func TestAppendPacketMatchesEncode(t *testing.T) {
	h := Header{SysUptime: 7, UnixSecs: 9, FlowSequence: 11, EngineID: 3, SamplingInterval: 100}
	r := rand.New(rand.NewSource(2))
	recs := []Record{randRecord(r), randRecord(r), randRecord(r)}
	want, err := EncodePacket(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendPacket([]byte("frame"), h, recs)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "frame" || !bytes.Equal(got[5:], want) {
		t.Fatalf("AppendPacket wrote\n%x\nwant frame +\n%x", got, want)
	}
	if _, err := AppendPacket(nil, h, nil); err == nil {
		t.Error("AppendPacket accepted an empty packet")
	}
}

func TestEncodePacketLimits(t *testing.T) {
	if _, err := EncodePacket(Header{}, nil); err == nil {
		t.Error("expected error for empty packet")
	}
	recs := make([]Record, MaxRecordsPerPacket+1)
	for i := range recs {
		recs[i] = Record{SrcAddr: netip.MustParseAddr("1.1.1.1"), DstAddr: netip.MustParseAddr("2.2.2.2")}
	}
	if _, err := EncodePacket(Header{}, recs); err == nil {
		t.Error("expected error for oversized packet")
	}
}

func TestEncodeRejectsIPv6(t *testing.T) {
	recs := []Record{{
		SrcAddr: netip.MustParseAddr("2001:db8::1"),
		DstAddr: netip.MustParseAddr("2.2.2.2"),
	}}
	if _, err := EncodePacket(Header{}, recs); err == nil {
		t.Error("expected error for IPv6 source")
	}
}

func TestEncodeAllowsZeroNextHop(t *testing.T) {
	recs := []Record{{
		SrcAddr: netip.MustParseAddr("1.1.1.1"),
		DstAddr: netip.MustParseAddr("2.2.2.2"),
	}}
	pkt, err := EncodePacket(Header{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].NextHop != netip.AddrFrom4([4]byte{}) {
		t.Errorf("next hop = %v, want 0.0.0.0", got[0].NextHop)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodePacket(nil); err == nil {
		t.Error("expected error for empty buffer")
	}
	// Wrong version.
	bad := make([]byte, HeaderSize+RecordSize)
	bad[1] = 9
	if _, _, err := DecodePacket(bad); err == nil {
		t.Error("expected error for wrong version")
	}
	// Valid header claiming more records than present.
	recs := []Record{{SrcAddr: netip.MustParseAddr("1.1.1.1"), DstAddr: netip.MustParseAddr("2.2.2.2")}}
	pkt, err := EncodePacket(Header{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	pkt[3] = 5 // count = 5, body has 1
	if _, _, err := DecodePacket(pkt); err == nil {
		t.Error("expected error for truncated body")
	}
	// Zero count.
	pkt[3] = 0
	if _, _, err := DecodePacket(pkt); err == nil {
		t.Error("expected error for zero count")
	}
}

func TestWriterReaderStream(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	recs := make([]Record, 95) // spans 4 packets at 30/packet
	for i := range recs {
		recs[i] = randRecord(r)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{UnixSecs: 1000, SamplingInterval: 10})
	if err := w.Write(recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.sequence != 95 {
		t.Fatalf("sequence = %d, want 95", w.sequence)
	}
	var got []Record
	for rd := NewReader(&buf); ; {
		_, batch, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestWriterFlushEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("empty flush wrote bytes")
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	recs := []Record{{SrcAddr: netip.MustParseAddr("1.1.1.1"), DstAddr: netip.MustParseAddr("2.2.2.2")}}
	pkt, err := EncodePacket(Header{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewReader(bytes.NewReader(pkt[:len(pkt)-4]))
	if _, _, err := rd.Next(); err == nil || err == io.EOF {
		t.Errorf("expected truncation error, got %v", err)
	}
}

// TestFeedTruncatedStream: a stream cut mid-packet is an error, and
// Feed has handed over (and counts) only the whole packets before the
// cut.
func TestFeedTruncatedStream(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	recs := make([]Record, 2*MaxRecordsPerPacket+7) // two full packets and a partial one
	for i := range recs {
		recs[i] = randRecord(r)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{UnixSecs: 1000})
	if err := w.Write(recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{1, RecordSize, 7 * RecordSize, 7*RecordSize + HeaderSize - 1} {
		var sink recordSink
		n, err := Feed(&sink, bytes.NewReader(whole[:len(whole)-cut]))
		if err == nil {
			t.Errorf("cut %d: no error for a stream truncated mid-packet", cut)
		}
		if n != 2*MaxRecordsPerPacket || len(sink.records()) != n {
			t.Errorf("cut %d: Feed counted %d records and delivered %d, want the %d of the whole packets",
				cut, n, len(sink.records()), 2*MaxRecordsPerPacket)
		}
	}
	var sink recordSink
	if n, err := Feed(&sink, bytes.NewReader(whole)); err != nil || n != len(recs) || len(sink.records()) != n {
		t.Errorf("whole stream: Feed = %d, %v with %d delivered; want %d, nil", n, err, len(sink.records()), len(recs))
	}
}

func TestDemandMbps(t *testing.T) {
	// 1 MB over 8 seconds = 1 Mbps.
	if got := DemandMbps(1e6, 8); got != 1 {
		t.Fatalf("DemandMbps = %v, want 1", got)
	}
	if got := DemandMbps(1e6, 0); got != 0 {
		t.Fatalf("DemandMbps with zero duration = %v, want 0", got)
	}
}
