package netflow_test

// The §4.1.1 collector contract over netflow's records: a record several
// routers exported counts once, sampled volume is restored, and the
// result does not depend on arrival order. The collector is the stream
// package's one-slot window, which imports netflow, so these tests live
// in the external test package.

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
)

var byDst = netflow.StringKey(func(r netflow.Record) string { return r.DstAddr.String() })

func randomRecord(r *rand.Rand) netflow.Record {
	ip := func() netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))})
	}
	return netflow.Record{
		SrcAddr: ip(), DstAddr: ip(),
		Input: uint16(r.Intn(4)), Output: uint16(r.Intn(4)),
		Octets: r.Uint32(), First: r.Uint32(), Last: r.Uint32(),
		SrcPort: uint16(r.Intn(1 << 16)), DstPort: uint16(r.Intn(1 << 16)),
		Proto: uint8(r.Intn(256)), SrcAS: uint16(r.Intn(1 << 16)),
	}
}

func TestCollectorDeduplicates(t *testing.T) {
	rec := netflow.Record{
		SrcAddr: netip.MustParseAddr("10.0.0.1"),
		DstAddr: netip.MustParseAddr("10.1.0.1"),
		Octets:  1000, First: 5, Last: 9, SrcAS: 1,
	}
	c := stream.NewCollector(byDst)
	h := netflow.Header{SamplingInterval: 1}
	// The same record exported by three routers on the path.
	c.Ingest(h, []netflow.Record{rec})
	c.Ingest(h, []netflow.Record{rec})
	c.Ingest(h, []netflow.Record{rec})
	aggs := c.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("got %d aggregates", len(aggs))
	}
	if aggs[0].Octets != 1000 {
		t.Fatalf("octets = %d, want 1000 (deduplicated)", aggs[0].Octets)
	}
	records, dups, dropped, _ := c.Stats()
	if records != 3 || dups != 2 || dropped != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (3, 2, 0)", records, dups, dropped)
	}
}

func TestCollectorDistinguishesRecordsOfOneFlow(t *testing.T) {
	// Two records of the same 5-tuple at the same uptime window but with
	// distinct exporter sequence stamps are NOT duplicates.
	base := netflow.Record{
		SrcAddr: netip.MustParseAddr("10.0.0.1"),
		DstAddr: netip.MustParseAddr("10.1.0.1"),
		Octets:  500, First: 5, Last: 9,
	}
	r1, r2 := base, base
	r1.SrcAS = 1
	r2.SrcAS = 2
	c := stream.NewCollector(byDst)
	c.Ingest(netflow.Header{}, []netflow.Record{r1, r2})
	aggs := c.Aggregates()
	if aggs[0].Octets != 1000 {
		t.Fatalf("octets = %d, want 1000", aggs[0].Octets)
	}
}

func TestCollectorRestoresSampling(t *testing.T) {
	rec := netflow.Record{
		SrcAddr: netip.MustParseAddr("10.0.0.1"),
		DstAddr: netip.MustParseAddr("10.1.0.1"),
		Octets:  1000,
	}
	c := stream.NewCollector(netflow.StringKey(func(netflow.Record) string { return "all" }))
	c.Ingest(netflow.Header{SamplingInterval: 100}, []netflow.Record{rec})
	if got := c.Aggregates()[0].Octets; got != 100000 {
		t.Fatalf("octets = %d, want 100000 (1-in-100 sampling restored)", got)
	}
}

func TestCollectorDropsUnkeyedRecords(t *testing.T) {
	rec := netflow.Record{
		SrcAddr: netip.MustParseAddr("10.0.0.1"),
		DstAddr: netip.MustParseAddr("10.1.0.1"),
		Octets:  1,
	}
	c := stream.NewCollector(netflow.StringKey(func(netflow.Record) string { return "" }))
	c.Ingest(netflow.Header{}, []netflow.Record{rec})
	if len(c.Aggregates()) != 0 {
		t.Error("unkeyed record should be dropped")
	}
	if _, _, dropped, _ := c.Stats(); dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

// TestCollectorOrderIndependent: a capture with duplicates collected
// forwards and backwards yields identical aggregates, samples included.
func TestCollectorOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := make([]netflow.Record, 200)
	for i := range recs {
		recs[i] = randomRecord(r)
	}
	// Duplicate a third of them.
	withDups := append([]netflow.Record{}, recs...)
	withDups = append(withDups, recs[:70]...)

	collect := func(order []netflow.Record) []netflow.Aggregate {
		c := stream.NewCollector(byDst)
		c.Ingest(netflow.Header{SamplingInterval: 1}, order)
		return c.Aggregates()
	}
	a := collect(withDups)
	rev := make([]netflow.Record, len(withDups))
	for i := range withDups {
		rev[i] = withDups[len(withDups)-1-i]
	}
	b := collect(rev)
	if len(a) != len(b) {
		t.Fatalf("aggregate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("aggregate %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCollectorConcurrentIngest(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	packets := make([][]netflow.Record, 20)
	for i := range packets {
		packets[i] = []netflow.Record{randomRecord(r), randomRecord(r), randomRecord(r)}
	}
	c := stream.NewCollector(byDst)
	var wg sync.WaitGroup
	for _, p := range packets {
		wg.Add(1)
		go func(recs []netflow.Record) {
			defer wg.Done()
			c.Ingest(netflow.Header{}, recs)
		}(p)
	}
	wg.Wait()
	if records, _, _, _ := c.Stats(); records != 60 {
		t.Fatalf("records = %d, want 60", records)
	}
}
