package traces

import (
	"bytes"
	"math"
	"math/rand"
	"net/netip"
	"testing"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
)

func TestEmitNetFlowRoundTrip(t *testing.T) {
	// The full §4.1.1 pipeline: dataset → NetFlow streams (duplicated
	// across routers, sampled) → collector (dedup, restore) → per-flow
	// demands matching the generated dataset.
	for _, name := range Names() {
		ds, err := ByName(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := ds.EmitNetFlow(EmitConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(streams) < 2 {
			t.Fatalf("%s: only %d router streams", name, len(streams))
		}
		c := stream.NewCollector(AggregateKey)
		for _, s := range streams {
			rd := netflow.NewReader(bytes.NewReader(s))
			for {
				h, recs, err := rd.Next()
				if err != nil {
					break
				}
				c.Ingest(h, recs)
			}
		}
		records, dups, dropped, _ := c.Stats()
		if dups == 0 {
			t.Errorf("%s: expected cross-router duplicates, got none", name)
		}
		if dropped != 0 {
			t.Errorf("%s: %d records dropped", name, dropped)
		}
		aggs := c.Aggregates()
		if len(aggs) != len(ds.Flows) {
			t.Fatalf("%s: %d aggregates for %d flows (records %d)",
				name, len(aggs), len(ds.Flows), records)
		}
		// Demands must match within sampling-rounding error.
		byKey := map[string]float64{}
		for _, a := range aggs {
			byKey[a.Key] = netflow.DemandMbps(a.Octets, ds.DurationSec)
		}
		for i, f := range ds.Flows {
			m := ds.Meta[i]
			// Recompute the aggregation key the emitter produces.
			rec := netflow.Record{SrcAddr: m.SrcIP, DstAddr: m.DstPrefix.Addr().Next()}
			got, ok := byKey[nameOf(rec)]
			if !ok {
				t.Fatalf("%s: flow %d (%s) missing from aggregates", name, i, f.ID)
			}
			if math.Abs(got-f.Demand) > 0.01*f.Demand+0.01 {
				t.Errorf("%s: flow %d demand %v, want %v", name, i, got, f.Demand)
			}
		}
	}
}

func TestEmitNetFlowDeterministic(t *testing.T) {
	ds, err := EUISP(4)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := ds.EmitNetFlow(EmitConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ds.EmitNetFlow(EmitConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("stream counts differ")
	}
	for router := range s1 {
		if !bytes.Equal(s1[router], s2[router]) {
			t.Fatalf("router %s stream differs between same-seed runs", router)
		}
	}
}

func TestEmitNetFlowInternet2PathDuplication(t *testing.T) {
	// Internet2 records must be exported by every router on the flow's
	// path, so the number of router streams equals the number of
	// distinct path cities.
	ds, err := Internet2(6)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(EmitConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, m := range ds.Meta {
		for _, city := range m.Path {
			want[city] = true
		}
	}
	if len(streams) != len(want) {
		t.Fatalf("got %d streams, want %d", len(streams), len(want))
	}
	for city := range want {
		if _, ok := streams[city]; !ok {
			t.Errorf("no stream for path router %s", city)
		}
	}
}

// stringForm is the bucket name AggregateKey gives r: the masked
// addresses as netip prints them. It is how the name was once built, for
// every record.
func stringForm(r netflow.Record) string {
	mask := func(a netip.Addr, bits int) string { return netip.PrefixFrom(a, bits).Masked().Addr().String() }
	return mask(r.SrcAddr, 20) + ">" + mask(r.DstAddr, 24)
}

// nameOf is r's bucket name under AggregateKey, "" when it has none.
func nameOf(r netflow.Record) string {
	code, ok := AggregateKey.Code(&r)
	if !ok {
		return ""
	}
	return string(AggregateKey.Name(nil, code))
}

// TestAggregateKeyMatchesStringForm pins the rendered name to the
// string form, appended behind what the buffer holds, for IPv4 and the
// zero address; an address no v5 record carries has no bucket.
func TestAggregateKeyMatchesStringForm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := []netflow.Record{
		{},
		{SrcAddr: netip.MustParseAddr("255.255.255.255"), DstAddr: netip.MustParseAddr("0.0.0.0")},
		{DstAddr: netip.MustParseAddr("10.1.2.3")},
	}
	for i := 0; i < 2000; i++ {
		var s, d [4]byte
		rng.Read(s[:])
		rng.Read(d[:])
		recs = append(recs, netflow.Record{SrcAddr: netip.AddrFrom4(s), DstAddr: netip.AddrFrom4(d)})
	}
	for _, r := range recs {
		code, ok := AggregateKey.Code(&r)
		if got := string(AggregateKey.Name([]byte("kept"), code)); !ok || got != "kept"+stringForm(r) {
			t.Fatalf("AggregateKey names (%v, %v) %q (coded %v), want %q", r.SrcAddr, r.DstAddr, got, ok, "kept"+stringForm(r))
		}
	}
	for _, r := range []netflow.Record{
		{SrcAddr: netip.MustParseAddr("2001:db8:ffff::1"), DstAddr: netip.MustParseAddr("10.1.2.3")},
		{SrcAddr: netip.MustParseAddr("10.1.2.3"), DstAddr: netip.MustParseAddr("::ffff:10.1.2.3")},
	} {
		if _, ok := AggregateKey.Code(&r); ok {
			t.Errorf("AggregateKey coded (%v, %v), which no v5 record carries", r.SrcAddr, r.DstAddr)
		}
	}
}

// FuzzAggregateBucket: over records whose addresses are IPv4 or the zero
// address, the name of a record's code is its string form, and two
// records share a code exactly when they share that string.
func FuzzAggregateBucket(f *testing.F) {
	f.Add([]byte{172, 16, 15, 1, 10, 0, 0, 9, 172, 16, 0, 200, 10, 0, 0, 1}, byte(0))
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 255, 255, 240, 0, 0, 0, 0, 255}, byte(5))
	f.Add(make([]byte, 16), byte(15))
	f.Fuzz(func(t *testing.T, addrs []byte, zero byte) {
		if len(addrs) < 16 {
			return
		}
		addr := func(i int) netip.Addr {
			if zero&(1<<i) != 0 {
				return netip.Addr{}
			}
			return netip.AddrFrom4([4]byte(addrs[4*i : 4*i+4]))
		}
		a := netflow.Record{SrcAddr: addr(0), DstAddr: addr(1)}
		b := netflow.Record{SrcAddr: addr(2), DstAddr: addr(3)}
		ca, okA := AggregateKey.Code(&a)
		cb, okB := AggregateKey.Code(&b)
		if !okA || !okB {
			t.Fatalf("no code for (%v, %v) or (%v, %v)", a.SrcAddr, a.DstAddr, b.SrcAddr, b.DstAddr)
		}
		for _, c := range []struct {
			r    netflow.Record
			code uint64
		}{{a, ca}, {b, cb}} {
			if got := string(AggregateKey.Name(nil, c.code)); got != stringForm(c.r) {
				t.Fatalf("code %#x of (%v, %v) names %q, want %q", c.code, c.r.SrcAddr, c.r.DstAddr, got, stringForm(c.r))
			}
		}
		if (ca == cb) != (stringForm(a) == stringForm(b)) {
			t.Fatalf("codes %#x and %#x for names %q and %q", ca, cb, stringForm(a), stringForm(b))
		}
	})
}
