// Package netflow implements the flow-export substrate of the paper's data
// pipeline (§4.1.1): a NetFlow-v5-format binary codec, a stream writer and
// reader for trace files, the UDP transport from core routers to a
// collector, and the vocabulary the collector counts in — the dedup key
// that tells a record several routers exported for the same flow
// (KeyOf), and the per-bucket demand aggregate with its order-free merge.
// The collector itself, which restores sampled volumes, counts each
// record once however many routers exported it and aggregates the result
// into traffic demands ("we obtain the demand for each flow by
// aggregating all records of the flow, while ensuring that we do not
// double-count records that are duplicated on different routers"), is
// the stream package's Window; stream.NewCollector is its batch form.
package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Version is the NetFlow export format version implemented here.
const Version = 5

// Wire sizes of the v5 format.
const (
	HeaderSize          = 24
	RecordSize          = 48
	MaxRecordsPerPacket = 30
)

// Header is a NetFlow v5 export packet header.
type Header struct {
	// Count is the number of records in the packet (1..30).
	Count uint16
	// SysUptime is milliseconds since the exporting device booted.
	SysUptime uint32
	// UnixSecs and UnixNsecs timestamp the export.
	UnixSecs  uint32
	UnixNsecs uint32
	// FlowSequence counts total flows exported by the device.
	FlowSequence uint32
	// EngineType and EngineID identify the exporting slot.
	EngineType uint8
	EngineID   uint8
	// SamplingInterval packs the 2-bit sampling mode and 14-bit interval;
	// this implementation stores the plain interval (0 or 1 = unsampled,
	// N = 1-in-N packet sampling).
	SamplingInterval uint16
}

// Record is a NetFlow v5 flow record.
type Record struct {
	// SrcAddr, DstAddr and NextHop are IPv4 addresses.
	SrcAddr netip.Addr
	DstAddr netip.Addr
	NextHop netip.Addr
	// Input and Output are SNMP interface indices; the paper's Internet2
	// heuristic uses them to identify the traversed links.
	Input  uint16
	Output uint16
	// Packets and Octets are the flow's counted volume (pre-sampling).
	Packets uint32
	Octets  uint32
	// First and Last are SysUptime values at the first and last packet.
	First uint32
	Last  uint32
	// Transport endpoints.
	SrcPort uint16
	DstPort uint16
	// TCPFlags, Proto and ToS describe the flow.
	TCPFlags uint8
	Proto    uint8
	ToS      uint8
	// Origin and peer autonomous systems.
	SrcAS uint16
	DstAS uint16
	// Address prefix mask lengths.
	SrcMask uint8
	DstMask uint8
}

// errShort reports a truncated buffer.
var errShort = errors.New("netflow: short buffer")

// appendHeader serializes h, including the version word.
func appendHeader(b []byte, h Header) []byte {
	b = binary.BigEndian.AppendUint16(b, Version)
	b = binary.BigEndian.AppendUint16(b, h.Count)
	b = binary.BigEndian.AppendUint32(b, h.SysUptime)
	b = binary.BigEndian.AppendUint32(b, h.UnixSecs)
	b = binary.BigEndian.AppendUint32(b, h.UnixNsecs)
	b = binary.BigEndian.AppendUint32(b, h.FlowSequence)
	b = append(b, h.EngineType, h.EngineID)
	b = binary.BigEndian.AppendUint16(b, h.SamplingInterval)
	return b
}

// parseHeader deserializes a header and checks the version.
func parseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, errShort
	}
	if v := binary.BigEndian.Uint16(b[0:2]); v != Version {
		return Header{}, fmt.Errorf("netflow: unsupported version %d", v)
	}
	return Header{
		Count:            binary.BigEndian.Uint16(b[2:4]),
		SysUptime:        binary.BigEndian.Uint32(b[4:8]),
		UnixSecs:         binary.BigEndian.Uint32(b[8:12]),
		UnixNsecs:        binary.BigEndian.Uint32(b[12:16]),
		FlowSequence:     binary.BigEndian.Uint32(b[16:20]),
		EngineType:       b[20],
		EngineID:         b[21],
		SamplingInterval: binary.BigEndian.Uint16(b[22:24]),
	}, nil
}

// appendRecord serializes r.
func appendRecord(b []byte, r Record) ([]byte, error) {
	src, err := addr4(r.SrcAddr)
	if err != nil {
		return nil, fmt.Errorf("netflow: src: %w", err)
	}
	dst, err := addr4(r.DstAddr)
	if err != nil {
		return nil, fmt.Errorf("netflow: dst: %w", err)
	}
	hop, err := addr4Or0(r.NextHop)
	if err != nil {
		return nil, fmt.Errorf("netflow: nexthop: %w", err)
	}
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	b = append(b, hop[:]...)
	b = binary.BigEndian.AppendUint16(b, r.Input)
	b = binary.BigEndian.AppendUint16(b, r.Output)
	b = binary.BigEndian.AppendUint32(b, r.Packets)
	b = binary.BigEndian.AppendUint32(b, r.Octets)
	b = binary.BigEndian.AppendUint32(b, r.First)
	b = binary.BigEndian.AppendUint32(b, r.Last)
	b = binary.BigEndian.AppendUint16(b, r.SrcPort)
	b = binary.BigEndian.AppendUint16(b, r.DstPort)
	b = append(b, 0, r.TCPFlags, r.Proto, r.ToS)
	b = binary.BigEndian.AppendUint16(b, r.SrcAS)
	b = binary.BigEndian.AppendUint16(b, r.DstAS)
	b = append(b, r.SrcMask, r.DstMask, 0, 0)
	return b, nil
}

// parseRecord deserializes one record from b[:RecordSize] into r, field
// by field, so a decode into a caller's buffer builds no Record to copy.
func parseRecord(r *Record, b []byte) {
	b = b[:RecordSize]
	r.SrcAddr = netip.AddrFrom4([4]byte(b[0:4]))
	r.DstAddr = netip.AddrFrom4([4]byte(b[4:8]))
	r.NextHop = netip.AddrFrom4([4]byte(b[8:12]))
	r.Input = binary.BigEndian.Uint16(b[12:14])
	r.Output = binary.BigEndian.Uint16(b[14:16])
	r.Packets = binary.BigEndian.Uint32(b[16:20])
	r.Octets = binary.BigEndian.Uint32(b[20:24])
	r.First = binary.BigEndian.Uint32(b[24:28])
	r.Last = binary.BigEndian.Uint32(b[28:32])
	r.SrcPort = binary.BigEndian.Uint16(b[32:34])
	r.DstPort = binary.BigEndian.Uint16(b[34:36])
	r.TCPFlags = b[37]
	r.Proto = b[38]
	r.ToS = b[39]
	r.SrcAS = binary.BigEndian.Uint16(b[40:42])
	r.DstAS = binary.BigEndian.Uint16(b[42:44])
	r.SrcMask = b[44]
	r.DstMask = b[45]
}

// EncodePacket serializes a header and 1..30 records into one export
// packet. The header's Count field is overwritten with len(recs).
func EncodePacket(h Header, recs []Record) ([]byte, error) {
	return AppendPacket(make([]byte, 0, HeaderSize+min(len(recs), MaxRecordsPerPacket)*RecordSize), h, recs)
}

// AppendPacket is EncodePacket appending to dst, for a caller that frames
// the packet inside a buffer of its own. On error dst's contents past its
// length are unspecified and nil is returned.
func AppendPacket(dst []byte, h Header, recs []Record) ([]byte, error) {
	if len(recs) == 0 {
		return nil, errors.New("netflow: empty packet")
	}
	if len(recs) > MaxRecordsPerPacket {
		return nil, fmt.Errorf("netflow: %d records exceed packet limit %d",
			len(recs), MaxRecordsPerPacket)
	}
	h.Count = uint16(len(recs))
	dst = appendHeader(dst, h)
	var err error
	for _, r := range recs {
		if dst, err = appendRecord(dst, r); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodePacket deserializes one export packet.
func DecodePacket(b []byte) (Header, []Record, error) {
	h, err := parseHeader(b)
	if err != nil {
		return Header{}, nil, err
	}
	if h.Count == 0 || h.Count > MaxRecordsPerPacket {
		return Header{}, nil, fmt.Errorf("netflow: bad record count %d", h.Count)
	}
	return decodeRecords(b, h, nil)
}

// DecodePacketInto is DecodePacket decoding into recs's backing array:
// the returned slice aliases recs when it has capacity for the packet's
// records, so a read loop that reuses one buffer across datagrams
// performs no per-datagram allocation. recs's length is ignored (the
// decode starts from recs[:0]).
func DecodePacketInto(b []byte, recs []Record) (Header, []Record, error) {
	h, err := parseHeader(b)
	if err != nil {
		return Header{}, nil, err
	}
	if h.Count == 0 || h.Count > MaxRecordsPerPacket {
		return Header{}, nil, fmt.Errorf("netflow: bad record count %d", h.Count)
	}
	return decodeRecords(b, h, recs)
}

// decodeRecords parses h.Count records straight into recs's backing
// array, or into a new one when it is too small.
func decodeRecords(b []byte, h Header, recs []Record) (Header, []Record, error) {
	n := int(h.Count)
	if len(b) < HeaderSize+n*RecordSize {
		return Header{}, nil, errShort
	}
	if cap(recs) < n {
		recs = make([]Record, n)
	}
	recs = recs[:n]
	for i := range recs {
		parseRecord(&recs[i], b[HeaderSize+i*RecordSize:])
	}
	return h, recs, nil
}

// addr4 converts an IPv4 netip.Addr to 4 bytes, rejecting non-IPv4.
func addr4(a netip.Addr) ([4]byte, error) {
	if !a.Is4() {
		return [4]byte{}, fmt.Errorf("address %v is not IPv4", a)
	}
	return a.As4(), nil
}

// addr4Or0 is addr4 but maps the zero Addr to 0.0.0.0 (unset next hop).
func addr4Or0(a netip.Addr) ([4]byte, error) {
	if a == (netip.Addr{}) {
		return [4]byte{}, nil
	}
	return addr4(a)
}
