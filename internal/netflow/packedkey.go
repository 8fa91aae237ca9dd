package netflow

import (
	"encoding/binary"
	"net/netip"
)

// PackedKey is a FlowKey in 32 pointer-free bytes: what the dedup sets
// store and hash. NetFlow v5 carries IPv4 addresses only, so each address
// packs into a presence byte (0 = the zero netip.Addr, 1 = IPv4) and its
// four bytes. Fields are laid out big-endian in FlowKey's comparison
// order — source, destination, ports, protocol, first, last, octets,
// sequence — so bytes.Compare over two packed keys orders them exactly as
// their FlowKeys order field by field (netip.Addr.Compare puts the zero
// Addr before every IPv4 address, and so does the presence byte). The
// last byte is always zero.
type PackedKey [32]byte

// Offsets of the packed fields.
const (
	pkSrc, pkDst                     = 0, 5
	pkSrcPort, pkDstPort, pkProto    = 10, 12, 14
	pkFirst, pkLast, pkOctets, pkSeq = 15, 19, 23, 27
)

// packAddr writes a's presence byte and IPv4 bytes at b[0:5]. It reports
// false for an address that is neither the zero Addr nor IPv4 — one no v5
// datagram can carry.
func packAddr(b []byte, a netip.Addr) bool {
	if a.Is4() {
		b[0] = 1
		*(*[4]byte)(b[1:5]) = a.As4()
		return true
	}
	return a == netip.Addr{}
}

// unpackAddr reverses packAddr.
func unpackAddr(b []byte) netip.Addr {
	if b[0] == 0 {
		return netip.Addr{}
	}
	return netip.AddrFrom4([4]byte(b[1:5]))
}

// Pack returns k's packed form, or false when an address is neither IPv4
// nor the zero Addr and the key therefore has no 32-byte form.
func (k FlowKey) Pack() (PackedKey, bool) {
	var p PackedKey
	ok := packAddr(p[pkSrc:], k.SrcAddr) && packAddr(p[pkDst:], k.DstAddr)
	p.packRest(k.SrcPort, k.DstPort, k.Proto, k.First, k.Last, k.Octets, k.Sequence)
	return p, ok
}

// PackRecord is KeyOf(*r).Pack() without the two copies of r that
// building the FlowKey takes: the collector packs every record it
// applies.
func PackRecord(r *Record) (PackedKey, bool) {
	var p PackedKey
	ok := packAddr(p[pkSrc:], r.SrcAddr) && packAddr(p[pkDst:], r.DstAddr)
	p.packRest(r.SrcPort, r.DstPort, r.Proto, r.First, r.Last, r.Octets, uint32(r.SrcAS)) // r.FlowSequence(), uncopied
	return p, ok
}

// packRest writes every field after the addresses.
func (p *PackedKey) packRest(srcPort, dstPort uint16, proto uint8, first, last, octets, seq uint32) {
	binary.BigEndian.PutUint16(p[pkSrcPort:], srcPort)
	binary.BigEndian.PutUint16(p[pkDstPort:], dstPort)
	p[pkProto] = proto
	binary.BigEndian.PutUint32(p[pkFirst:], first)
	binary.BigEndian.PutUint32(p[pkLast:], last)
	binary.BigEndian.PutUint32(p[pkOctets:], octets)
	binary.BigEndian.PutUint32(p[pkSeq:], seq)
}

// Unpack returns the FlowKey p was packed from.
func (p PackedKey) Unpack() FlowKey {
	return FlowKey{
		SrcAddr:  unpackAddr(p[pkSrc:]),
		DstAddr:  unpackAddr(p[pkDst:]),
		SrcPort:  binary.BigEndian.Uint16(p[pkSrcPort:]),
		DstPort:  binary.BigEndian.Uint16(p[pkDstPort:]),
		Proto:    p[pkProto],
		First:    binary.BigEndian.Uint32(p[pkFirst:]),
		Last:     binary.BigEndian.Uint32(p[pkLast:]),
		Octets:   binary.BigEndian.Uint32(p[pkOctets:]),
		Sequence: binary.BigEndian.Uint32(p[pkSeq:]),
	}
}
