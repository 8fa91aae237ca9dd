package transit

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
)

// TestDeployFacadeEndToEnd drives the whole §5 pipeline through the
// public API, exactly as examples/accountingpipeline does: fit tiers,
// announce them over a live BGP session, replay the NetFlow trace into
// the flow accountant, and reconcile against per-tier link counters.
func TestDeployFacadeEndToEnd(t *testing.T) {
	ds, err := DatasetEUISP(2)
	if err != nil {
		t.Fatal(err)
	}
	market, err := NewMarket(ds.Flows, CED{Alpha: 1.1}, Linear{Theta: 0.2}, ds.P0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := market.Run(ProfitWeighted{}, 3)
	if err != nil {
		t.Fatal(err)
	}

	// §5.1 over the facade: provider Speaker, customer session (its RIB
	// drops routes that carry its own AS).
	speaker, err := NewSpeaker("127.0.0.1:0",
		BGPOpen{AS: 64512, HoldTime: 180, ID: 1}, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	tierOf := map[netip.Prefix]int{}
	var prefixes []netip.Prefix
	for b, block := range out.Partition {
		for _, i := range block {
			tierOf[ds.Meta[i].DstPrefix] = b
			prefixes = append(prefixes, ds.Meta[i].DstPrefix)
		}
	}
	// AnnounceTiered is the batch the speaker builds its table from;
	// exercise it for coverage of the facade path.
	if _, err := AnnounceTiered(prefixes, netip.MustParseAddr("192.0.2.1"),
		func(p netip.Prefix) int { return tierOf[p] }, out.Prices); err != nil {
		t.Fatal(err)
	}
	if err := speaker.Reprice(prefixes,
		func(p netip.Prefix) int { return tierOf[p] }, out.Prices); err != nil {
		t.Fatal(err)
	}

	customer, err := DialBGP(speaker.Addr(), BGPOpen{AS: 64513, HoldTime: 180, ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	rib := customer.RIB()
	if rib.Len() != len(ds.Flows) {
		t.Fatalf("RIB holds %d routes after the replay, want %d", rib.Len(), len(ds.Flows))
	}
	if err := customer.Close(); err != nil {
		t.Fatal(err)
	}

	// §5.2(b) flow-based accounting from the replayed trace.
	fa, err := NewFlowAccountant(rib)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(EmitConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range streams {
		rd := NewNetFlowReader(bytes.NewReader(stream))
		for {
			h, recs, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			fa.Ingest(h, recs)
		}
	}
	flowBill, err := ComputeBill(fa.PerTierOctets(), out.Prices, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}

	// §5.2(a) link-based accounting: each flow's octets are counted on
	// its tier's link, as fig17 meters them.
	lm := NewLinkMeter()
	for tier := range out.Prices {
		if err := lm.AddLink(uint16(100+tier), tier); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range market.Flows {
		route, ok := rib.Lookup(ds.Meta[i].DstPrefix.Addr().Next())
		if !ok || route.Tier == nil {
			t.Fatalf("flow %q unrouted", f.ID)
		}
		ifIndex, _ := lm.LinkFor(int(route.Tier.Tier))
		if err := lm.Count(ifIndex, uint64(f.Demand*1e6/8*ds.DurationSec)); err != nil {
			t.Fatal(err)
		}
	}
	perTier := PerTierOctets(lm.Poll())
	linkBill, err := ComputeBill(perTier, out.Prices, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}

	if rel := (flowBill.Total - linkBill.Total) / linkBill.Total; rel < -0.01 || rel > 0.01 {
		t.Fatalf("bills disagree: flow $%.2f vs link $%.2f", flowBill.Total, linkBill.Total)
	}
	if fa.Unrouted() != 0 {
		t.Fatalf("unrouted octets: %d", fa.Unrouted())
	}
	// PerTierOctets facade over meter samples must agree with the poller.
	if got := PerTierOctets(lm.Poll()); len(got) != len(out.Prices) {
		t.Fatalf("meter per-tier = %v", got)
	}
	// The dataset aggregate key facade resolves emitted records.
	rec := NetFlowRecord{SrcAddr: ds.Meta[0].SrcIP, DstAddr: ds.Meta[0].DstPrefix.Addr().Next()}
	if DatasetAggregateKey(rec) == "" {
		t.Error("aggregate key empty")
	}
	c := NewCollector(DatasetAggregateKey)
	c.Ingest(NetFlowHeader{}, []NetFlowRecord{rec})
	if len(c.Aggregates()) != 1 {
		t.Error("facade collector did not aggregate")
	}
}
