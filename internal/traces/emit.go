package traces

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"

	"tieredpricing/internal/netflow"
)

// EmitConfig tunes NetFlow rendering.
type EmitConfig struct {
	// RecordsPerFlow is the minimum number of records each flow's volume
	// is split into (default 20). Flows too large for that many records
	// at the sampled 32-bit octet counter automatically get more.
	RecordsPerFlow int
	// Seed randomizes record timing.
	Seed int64
}

// maxSampledOctets caps the per-record sampled octet counter safely below
// the uint32 limit.
const maxSampledOctets = 4_000_000_000

// EmitNetFlow renders the dataset as NetFlow v5 export streams, one per
// exporting router, mirroring how the paper's data was captured: every
// record is exported by EVERY router on the flow's path (entry and exit
// PoP for the EU ISP and CDN, the full routed path for Internet2), so the
// collection pipeline must de-duplicate; volumes are 1-in-N sampled per
// Dataset.SamplingInterval. A first pass counts each router's records, so
// each stream is written into a buffer of its final size.
func (ds *Dataset) EmitNetFlow(cfg EmitConfig) (map[string][]byte, error) {
	if cfg.RecordsPerFlow <= 0 {
		cfg.RecordsPerFlow = 20
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	sampling := uint64(ds.SamplingInterval)
	if sampling == 0 {
		sampling = 1
	}

	counts := map[string]int{}
	for i := range ds.Flows {
		records, perRecord, _ := ds.split(i, cfg.RecordsPerFlow, sampling)
		if perRecord == 0 {
			records = 1 // only the last record, carrying the remainder
		}
		for _, router := range exporters(&ds.Meta[i]) {
			counts[router] += records
		}
	}
	streams := make(map[string]*netflow.Writer, len(counts))
	bufs := make(map[string]*bytes.Buffer, len(counts))
	for router, n := range counts {
		packets := (n + netflow.MaxRecordsPerPacket - 1) / netflow.MaxRecordsPerPacket
		buf := bytes.NewBuffer(make([]byte, 0, packets*netflow.HeaderSize+n*netflow.RecordSize))
		bufs[router] = buf
		streams[router] = netflow.NewWriter(buf, netflow.Header{
			UnixSecs:         1257985000,
			SamplingInterval: uint16(sampling),
		})
	}

	for i, f := range ds.Flows {
		m := &ds.Meta[i]
		records, perRecord, remainder := ds.split(i, cfg.RecordsPerFlow, sampling)
		routers := exporters(m)
		dstIP := m.DstPrefix.Addr().Next()
		for seq := 0; seq < records; seq++ {
			octets := perRecord
			if seq == records-1 {
				octets += remainder
			}
			if octets == 0 {
				continue
			}
			if octets > maxSampledOctets {
				return nil, fmt.Errorf("traces: flow %q record overflows sampled counter", f.ID)
			}
			start := uint32(r.Intn(int(ds.DurationSec))) * 1000
			rec := netflow.Record{
				SrcAddr: m.SrcIP,
				DstAddr: dstIP,
				Packets: uint32(octets / 1000),
				Octets:  uint32(octets),
				First:   start,
				Last:    start + uint32(1+r.Intn(60000)),
				SrcPort: uint16(1024 + r.Intn(60000)),
				DstPort: 443,
				Proto:   6,
				SrcAS:   uint16(seq), // per-flow record sequence (dedup stamp)
				DstMask: uint8(m.DstPrefix.Bits()),
			}
			// The same record is exported by every router on the path.
			for hop, router := range routers {
				dup := rec
				dup.Input = uint16(hop)
				dup.Output = uint16(hop + 1)
				if err := streams[router].Write(dup); err != nil {
					return nil, err
				}
			}
		}
	}

	out := make(map[string][]byte, len(bufs))
	for router, w := range streams {
		if err := w.Flush(); err != nil {
			return nil, err
		}
		out[router] = bufs[router].Bytes()
	}
	return out, nil
}

// split is how flow i's sampled volume splits into records: records of
// perRecord octets each, the last one carrying remainder more. A record
// of zero octets is not exported.
func (ds *Dataset) split(i, recordsPerFlow int, sampling uint64) (records int, perRecord, remainder uint64) {
	totalOctets := uint64(ds.Flows[i].Demand * 1e6 / 8 * ds.DurationSec)
	sampledTotal := max(totalOctets/sampling, 1)
	records = max(recordsPerFlow, int(sampledTotal/maxSampledOctets)+1)
	return records, sampledTotal / uint64(records), sampledTotal % uint64(records)
}

// exporters returns the routers that export a flow's records: its routed
// path, or else its entry and exit PoP (one router when they coincide).
func exporters(m *FlowMeta) []string {
	switch {
	case len(m.Path) > 0:
		return m.Path
	case m.SrcCity == m.DstCity:
		return []string{m.SrcCity}
	}
	return []string{m.SrcCity, m.DstCity}
}

// AggregateKey is the collection pipeline's bucketing rule for these
// datasets: source PoP block plus destination /24, so each synthesized
// flow maps to exactly one bucket, named "<src/20 base>><dst/24 base>"
// as netip prints the masked addresses. A record with an address that is
// neither IPv4 nor the zero netip.Addr — one no v5 datagram carries — has
// no bucket.
var AggregateKey netflow.BucketRule = prefixPair{}

// prefixPair is AggregateKey. A code holds the masked source /20 in its
// high word and the masked destination /24 in its low one (maskedWord).
type prefixPair struct{}

func (prefixPair) Code(r *netflow.Record) (uint64, bool) {
	src, srcOK := maskedWord(r.SrcAddr, netflow.SrcPrefixBits)
	dst, dstOK := maskedWord(r.DstAddr, netflow.DstPrefixBits)
	return uint64(src)<<32 | uint64(dst), srcOK && dstOK
}

func (prefixPair) Name(dst []byte, code uint64) []byte {
	dst = appendWord(dst, uint32(code>>32))
	dst = append(dst, '>')
	return appendWord(dst, uint32(code))
}

// maskedWord is IPv4 address a with the host bits beyond the prefix
// length cleared and bit 0, a host bit, set; and 0 for the zero Addr.
// Any other address has no word.
func maskedWord(a netip.Addr, bits int) (uint32, bool) {
	if a.Is4() {
		b := a.As4()
		return binary.BigEndian.Uint32(b[:])&^(1<<(32-bits)-1) | 1, true
	}
	return 0, a == netip.Addr{}
}

// appendWord appends the address a maskedWord stands for as
// netip.Addr.String prints it: "invalid IP" for the zero Addr.
func appendWord(dst []byte, w uint32) []byte {
	if w == 0 {
		return append(dst, "invalid IP"...)
	}
	w &^= 1
	for shift := 24; shift >= 0; shift -= 8 {
		o := byte(w >> shift)
		if o >= 100 {
			dst = append(dst, '0'+o/100)
		}
		if o >= 10 {
			dst = append(dst, '0'+o/10%10)
		}
		dst = append(dst, '0'+o%10, '.')
	}
	return dst[:len(dst)-1]
}
