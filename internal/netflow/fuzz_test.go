package netflow

import (
	"bytes"
	"io"
	"net/netip"
	"slices"
	"testing"
)

// FuzzDecodePacket hardens the NetFlow parser against malformed
// datagrams: whatever arrives at the collector's UDP socket must either
// decode cleanly or error — never panic, never over-read.
func FuzzDecodePacket(f *testing.F) {
	// Seed with a valid packet and a few truncations/corruptions.
	recs := []Record{{
		SrcAddr: netip.MustParseAddr("10.0.0.1"),
		DstAddr: netip.MustParseAddr("10.1.0.1"),
		Octets:  1234, First: 1, Last: 2, SrcPort: 443, Proto: 6,
	}}
	valid, err := EncodePacket(Header{UnixSecs: 1000, SamplingInterval: 10}, recs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:HeaderSize])
	f.Add(valid[:len(valid)-1])
	corrupt := append([]byte(nil), valid...)
	corrupt[3] = 29 // count claims more records than present
	f.Add(corrupt)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, got, err := DecodePacket(data)
		if err != nil {
			return
		}
		// Decoded packets must re-encode to an identical wire image
		// (the format has no don't-care bits our encoder skips... except
		// the two pad fields, which EncodePacket zeroes; so compare by
		// re-decoding instead).
		re, err := EncodePacket(h, got)
		if err != nil {
			t.Fatalf("re-encode of decoded packet failed: %v", err)
		}
		h2, got2, err := DecodePacket(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if h2 != h || len(got2) != len(got) {
			t.Fatalf("decode/encode not idempotent")
		}
		for i := range got {
			if got2[i] != got[i] {
				t.Fatalf("record %d changed across round trip", i)
			}
		}
	})
}

// FuzzUDPDatagramPath fuzzes the exact per-datagram path the UDP
// CollectorServer runs: DecodePacket on a raw datagram, then (on
// success) the sink's Ingest. Malformed headers and truncated records
// must error — never panic — and whatever does decode must reach the
// sink whole. What the collector then counts is stream's
// FuzzCollectorAccounting.
func FuzzUDPDatagramPath(f *testing.F) {
	recs := []Record{
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
	valid, err := EncodePacket(Header{UnixSecs: 1000, SamplingInterval: 100}, recs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:HeaderSize-1])            // truncated header
	f.Add(valid[:HeaderSize])              // header only, no records
	f.Add(valid[:HeaderSize+RecordSize-7]) // truncated record
	f.Add(valid[:len(valid)-1])            // last record short one byte
	badVersion := append([]byte(nil), valid...)
	badVersion[1] = 9 // version 9 header on a v5 body
	f.Add(badVersion)
	zeroCount := append([]byte(nil), valid...)
	zeroCount[2], zeroCount[3] = 0, 0
	f.Add(zeroCount)
	hugeCount := append([]byte(nil), valid...)
	hugeCount[2], hugeCount[3] = 0xFF, 0xFF
	f.Add(hugeCount)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, datagram []byte) {
		h, got, err := DecodePacket(datagram)
		if err != nil {
			return // the server counts this datagram as bad and moves on
		}
		if len(got) == 0 || len(got) > MaxRecordsPerPacket {
			t.Fatalf("decode accepted %d records", len(got))
		}
		var sink recordSink
		sink.Ingest(h, got)
		if n := len(sink.records()); n != len(got) {
			t.Fatalf("sink received %d records, decoded %d", n, len(got))
		}
	})
}

// FuzzReader exercises the stream reader, and Feed over it, on
// arbitrary byte streams. Every record Feed delivers must equal, by
// value, a fresh DecodePacket of its packet's bytes: the reader decodes
// into one reused array, and a record left over from an earlier packet
// must not reach the sink.
func FuzzReader(f *testing.F) {
	recs := []Record{{
		SrcAddr: netip.MustParseAddr("10.0.0.1"),
		DstAddr: netip.MustParseAddr("10.1.0.1"),
	}}
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{})
	if err := w.Write(recs...); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	one := buf.Bytes()
	f.Add(one)
	f.Add(append(one, one...))
	f.Add([]byte("garbage"))
	// A full packet, then a shorter one that reuses the array.
	var long []Record
	for i := range MaxRecordsPerPacket {
		long = append(long, Record{
			SrcAddr: netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
			DstAddr: netip.AddrFrom4([4]byte{10, 1, byte(i), 1}),
			Octets:  uint32(1000 + i),
		})
	}
	full, err := EncodePacket(Header{FlowSequence: 7}, long)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(full, one...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every Next consumes at least a header, so len(data)/HeaderSize+1
		// calls bound a reader that terminates.
		var records int
		var firstErr error
		rd := NewReader(bytes.NewReader(data))
		for i := 0; ; i++ {
			if i > len(data)/HeaderSize {
				t.Fatal("reader did not terminate")
			}
			_, recs, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				firstErr = err // malformed input must error, not loop or panic
				break
			}
			records += len(recs)
		}
		// Feed is the same walk: the record count Next summed, and the
		// first error Next returned.
		var sink packetSink
		n, err := Feed(&sink, bytes.NewReader(data))
		if delivered := sink.records(); n != records || delivered != records {
			t.Fatalf("Feed counted %d records and delivered %d, Next summed %d", n, delivered, records)
		}
		if (err == nil) != (firstErr == nil) || (err != nil && err.Error() != firstErr.Error()) {
			t.Fatalf("Feed returned %v, Next's first error was %v", err, firstErr)
		}
		off := 0
		for k, p := range sink.packets {
			h, want, err := DecodePacket(data[off:])
			if err != nil {
				t.Fatalf("packet %d at byte %d: Feed delivered it, DecodePacket says %v", k, off, err)
			}
			off += HeaderSize + len(want)*RecordSize
			if p.h != h || !slices.Equal(p.recs, want) {
				t.Fatalf("packet %d: Feed delivered %+v %v, DecodePacket of its bytes is %+v %v", k, p.h, p.recs, h, want)
			}
		}
	})
}

// packetSink keeps a copy of each packet it is handed, as handed.
type packetSink struct {
	packets []packet
}

type packet struct {
	h    Header
	recs []Record
}

func (s *packetSink) Ingest(h Header, recs []Record) {
	s.packets = append(s.packets, packet{h, slices.Clone(recs)})
}

func (s *packetSink) records() (n int) {
	for _, p := range s.packets {
		n += len(p.recs)
	}
	return n
}
