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
			got, ok := byKey[string(AggregateKey(nil, rec))]
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

// TestAggregateKeyMatchesStringForm pins the appended key to the string
// it replaced — the masked addresses as netip prints them — for IPv4,
// and for the addresses no v5 record carries.
func TestAggregateKeyMatchesStringForm(t *testing.T) {
	old := func(r netflow.Record) string {
		mask := func(a netip.Addr, bits int) string { return netip.PrefixFrom(a, bits).Masked().Addr().String() }
		return mask(r.SrcAddr, 20) + ">" + mask(r.DstAddr, 24)
	}
	rng := rand.New(rand.NewSource(9))
	recs := []netflow.Record{
		{},
		{SrcAddr: netip.MustParseAddr("2001:db8:ffff::1"), DstAddr: netip.MustParseAddr("::ffff:10.1.2.3")},
		{SrcAddr: netip.MustParseAddr("255.255.255.255"), DstAddr: netip.MustParseAddr("0.0.0.0")},
	}
	for i := 0; i < 2000; i++ {
		var s, d [4]byte
		rng.Read(s[:])
		rng.Read(d[:])
		recs = append(recs, netflow.Record{SrcAddr: netip.AddrFrom4(s), DstAddr: netip.AddrFrom4(d)})
	}
	buf := []byte("kept")
	for _, r := range recs {
		if got := string(AggregateKey(buf, r)); got != "kept"+old(r) {
			t.Fatalf("AggregateKey(%v, %v) = %q, want %q", r.SrcAddr, r.DstAddr, got, "kept"+old(r))
		}
	}
}
