// Package gen is the benchmark's seeded input generator. Everything
// tierd is shown — geoip.csv, meta.txt, the -tenants file, every NetFlow
// datagram — comes from here, and the same seed yields the same bytes.
//
// An address plan is a set of source PoP blocks (/20s inside
// 172.16.0.0/12) and destination /24s (inside 10.0.0.0/8), each placed
// at a synthetic city, plus the (source block, destination /24) pairs
// that are aggregate keys under traces.AggregateKey. A pair outside the
// preloaded keys whose two halves are both in geoip.csv is a marker: a
// key tierd has never seen but can resolve, so the first snapshot that
// quotes it from the window dates the datagram that carried it.
package gen

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"tieredpricing/internal/netflow"
)

// Block is one located prefix of the plan (a geoip.csv row).
type Block struct {
	Prefix   netip.Prefix
	City     string
	Country  string
	Lat, Lon float64
}

// Pair is one aggregate key, as a host address inside its source block
// and one inside its destination /24.
type Pair struct {
	Src, Dst netip.Addr
}

// Plan is a seeded address plan.
type Plan struct {
	Name    string
	Seed    int64
	Sources []Block
	Dests   []Block
	Keys    []Pair // preloaded aggregates
	Markers []Pair // resolvable, never preloaded
	octets  []uint32
}

// Sampling is the 1-in-N packet sampling every generated header
// declares; with meta.txt's 24 h capture it makes one record's octets a
// positive demand.
const Sampling = 1000

// EvalSeed is the seed every tiersim run and every timed experiment
// gets, whatever the benchmark's own seed: the evaluation's work is its
// seed's — `tiersim run all` takes 0.33 s at seed 2 and 0.65 s at seed 3
// on the same box — so benchmark runs on different seeds would otherwise
// time different amounts of work and call the difference spread.
const EvalSeed = 1

// offLast is where Last sits inside a 48-byte record.
const offLast = 28

// NewPlan draws a plan of keys preloaded aggregates and markers marker
// pairs over sources×dests blocks.
func NewPlan(name string, seed int64, sources, dests, keys, markers int) (*Plan, error) {
	if sources < 1 || sources > 256 || dests < 1 || dests > 1<<16 {
		return nil, fmt.Errorf("gen: %d sources × %d dests outside the address plan", sources, dests)
	}
	if keys < 1 || keys+markers > sources*dests {
		return nil, fmt.Errorf("gen: %d keys + %d markers exceed %d pairs", keys, markers, sources*dests)
	}
	rng := rand.New(rand.NewSource(seed))
	countries := []string{"NL", "DE", "BE", "FR", "UK", "CH", "IT", "ES"}
	block := func(kind string, i int, base uint32, bits int) Block {
		return Block{
			Prefix:  netip.PrefixFrom(addr(base), bits),
			City:    fmt.Sprintf("%s%d", kind, i),
			Country: countries[rng.Intn(len(countries))],
			// Two decimals keep geoip.csv short and round-trip exactly.
			Lat: math.Round((36+24*rng.Float64())*100) / 100,
			Lon: math.Round((-10+40*rng.Float64())*100) / 100,
		}
	}
	p := &Plan{Name: name, Seed: seed}
	for i := 0; i < sources; i++ {
		p.Sources = append(p.Sources, block("pop", i, 172<<24|16<<16|uint32(i)<<12, 20))
	}
	for j := 0; j < dests; j++ {
		p.Dests = append(p.Dests, block("dst", j, 10<<24|uint32(j)<<8, 24))
	}
	for _, idx := range rng.Perm(sources * dests)[:keys+markers] {
		s, d := p.Sources[idx/dests], p.Dests[idx%dests]
		pair := Pair{
			Src: addr(u32(s.Prefix.Addr()) + 1 + uint32(rng.Intn(4000))),
			Dst: addr(u32(d.Prefix.Addr()) + 1 + uint32(rng.Intn(250))),
		}
		if len(p.Keys) < keys {
			p.Keys = append(p.Keys, pair)
			// Heavy-tailed per-record volume, so tiers are not degenerate.
			oct := 1e5 * math.Exp(1.2*rng.NormFloat64())
			p.octets = append(p.octets, uint32(math.Min(math.Max(oct, 1e3), 3e9)))
		} else {
			p.Markers = append(p.Markers, pair)
		}
	}
	return p, nil
}

func addr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func u32(a netip.Addr) uint32 { return binary.BigEndian.Uint32(a.AsSlice()) }

// GeoIPCSV renders the plan's geoip.csv.
func (p *Plan) GeoIPCSV() []byte {
	var b bytes.Buffer
	b.WriteString("prefix,city,country,lat,lon\n")
	for _, blocks := range [][]Block{p.Sources, p.Dests} {
		for _, bl := range blocks {
			fmt.Fprintf(&b, "%s,%s,%s,%g,%g\n", bl.Prefix, bl.City, bl.Country, bl.Lat, bl.Lon)
		}
	}
	return b.Bytes()
}

// MetaTxt renders the plan's meta.txt. The dataset name is not one of
// the paper's three, so tierd resolves distance as great-circle miles
// between the two geoip rows and regions by city and country.
func (p *Plan) MetaTxt() []byte {
	return []byte(fmt.Sprintf(
		"dataset=%s\nseed=%d\nflows=%d\nblended_rate=20\nduration_sec=86400\nsampling=%d\nrouters=2\n",
		p.Name, p.Seed, len(p.Keys), Sampling))
}

// Tenant is one entry of the -tenants file.
type Tenant struct {
	ID       string  `json:"id"`
	Trace    string  `json:"trace"`
	Default  bool    `json:"default,omitempty"`
	Routers  []uint8 `json:"routers"`
	Model    string  `json:"model"`
	Strategy string  `json:"strategy"`
	Tiers    int     `json:"tiers"`
}

// TenantsJSON renders the -tenants file.
func TenantsJSON(tenants []Tenant) []byte {
	out, err := json.MarshalIndent(struct {
		Tenants []Tenant `json:"tenants"`
	}{tenants}, "", "  ")
	if err != nil {
		panic(err) // plain strings and ints cannot fail to marshal
	}
	return append(out, '\n')
}

// Corpus is a run of pre-encoded export datagrams and what tierd must
// count after applying each of them exactly once.
type Corpus struct {
	Datagrams  [][]byte
	Records    int
	Duplicates int
}

// stream deals records into full datagrams for one exporting engine.
type stream struct {
	engine uint8
	recs   []netflow.Record
	out    [][]byte
}

func (s *stream) add(r netflow.Record) {
	s.recs = append(s.recs, r)
	if len(s.recs) == netflow.MaxRecordsPerPacket {
		s.flush()
	}
}

func (s *stream) flush() {
	if len(s.recs) == 0 {
		return
	}
	pkt, err := netflow.EncodePacket(netflow.Header{
		UnixSecs: 1257985000, EngineID: s.engine, SamplingInterval: Sampling,
	}, s.recs)
	if err != nil {
		panic(err) // every generated address is IPv4 and the count is ≤ 30
	}
	s.out = append(s.out, pkt)
	s.recs = s.recs[:0]
}

// record builds the seq-th record of the corpus for key k. First carries
// seq, so every record of a corpus has its own dedup key.
func (p *Plan) record(k int, seq uint32, rng *rand.Rand) netflow.Record {
	return netflow.Record{
		SrcAddr: p.Keys[k].Src,
		DstAddr: p.Keys[k].Dst,
		Packets: p.octets[k]/1000 + 1,
		Octets:  p.octets[k],
		First:   seq,
		SrcPort: uint16(1024 + rng.Intn(60000)),
		DstPort: 443,
		Proto:   6,
		Output:  1,
		DstMask: 24,
	}
}

// Preload is the corpus that installs every key: perKey records each,
// exported once by engine.
func (p *Plan) Preload(engine uint8, perKey int) Corpus {
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5eed))
	s := &stream{engine: engine}
	var seq uint32
	for k := range p.Keys {
		for i := 0; i < perKey; i++ {
			s.add(p.record(k, seq, rng))
			seq++
		}
	}
	s.flush()
	return Corpus{Datagrams: s.out, Records: int(seq)}
}

// Traffic is a corpus of n full datagrams over the preloaded keys with
// fresh dedup keys (First counts up from firstSeq). With two engines the
// datagrams alternate between them and each pair carries the same
// records — the second exporter's copy differs only in its interface
// indices — so exactly half the records are cross-router duplicates.
// Pass one engine for duplicate-free traffic. n is rounded up to a
// multiple of the engine count.
func (p *Plan) Traffic(n int, firstSeq uint32, engines ...uint8) Corpus {
	rng := rand.New(rand.NewSource(p.Seed ^ int64(firstSeq)<<20 ^ 0x7aff1c))
	exporters := make([]*stream, len(engines))
	for i, e := range engines {
		exporters[i] = &stream{engine: e}
	}
	c := Corpus{}
	seq := firstSeq
	for len(c.Datagrams) < n {
		for i := 0; i < netflow.MaxRecordsPerPacket; i++ {
			r := p.record(rng.Intn(len(p.Keys)), seq, rng)
			seq++
			for hop, s := range exporters {
				r.Input, r.Output = uint16(hop), uint16(hop+1)
				s.add(r)
			}
		}
		for hop, s := range exporters {
			c.Datagrams = append(c.Datagrams, s.out...)
			s.out = s.out[:0]
			c.Records += netflow.MaxRecordsPerPacket
			if hop > 0 {
				c.Duplicates += netflow.MaxRecordsPerPacket
			}
		}
	}
	return c
}

// Restamp rewrites Last in every record of an encoded datagram. A sender
// that cycles a corpus restamps each pass with the pass number, which
// keeps every record fresh to tierd's dedup sets while a duplicate pair,
// restamped alike, stays a pair.
func Restamp(dgram []byte, pass uint32) {
	for off := netflow.HeaderSize; off+netflow.RecordSize <= len(dgram); off += netflow.RecordSize {
		binary.BigEndian.PutUint32(dgram[off+offLast:], pass)
	}
}

// MarkerDatagram encodes the one-record datagram that introduces
// Markers[i] to the tenant behind engine.
func (p *Plan) MarkerDatagram(i int, engine uint8) []byte {
	s := &stream{engine: engine}
	s.add(netflow.Record{
		SrcAddr: p.Markers[i].Src,
		DstAddr: p.Markers[i].Dst,
		Packets: 100,
		Octets:  100_000,
		First:   uint32(i),
		Last:    math.MaxUint32, // no Traffic or Preload record uses it
		SrcPort: 4242,
		DstPort: 443,
		Proto:   6,
		Output:  1,
		DstMask: 24,
	})
	s.flush()
	return s.out[0]
}

// Quote is one request of a quote mix and the answer it must get.
type Quote struct {
	Src, Dst string
	// Want is "window" (both halves of a preloaded key), "rib" (a
	// preloaded destination /24 from a source no key has) or "miss"
	// (a destination outside the plan: tierd answers 404).
	Want string
}

// QuoteMix draws n requests: share hit of window hits, share rib of RIB
// fallbacks, the rest misses.
func (p *Plan) QuoteMix(n int, hit, rib float64) []Quote {
	rng := rand.New(rand.NewSource(p.Seed ^ 0x900d))
	out := make([]Quote, n)
	for i := range out {
		k := p.Keys[rng.Intn(len(p.Keys))]
		switch u := rng.Float64(); {
		case u < hit:
			// Any host of the key's blocks masks to the key.
			src := addr(u32(k.Src)&^0xfff | uint32(1+rng.Intn(4000)))
			dst := addr(u32(k.Dst)&^0xff | uint32(1+rng.Intn(250)))
			out[i] = Quote{src.String(), dst.String(), "window"}
		case u < hit+rib:
			src := addr(192<<24 | 2<<8 | uint32(1+rng.Intn(250))) // 192.0.2.0/24
			out[i] = Quote{src.String(), k.Dst.String(), "rib"}
		default:
			dst := addr(198<<24 | 51<<16 | 100<<8 | uint32(1+rng.Intn(250)))
			out[i] = Quote{k.Src.String(), dst.String(), "miss"}
		}
	}
	return out
}
