// Accounting pipeline: run the paper's §5 deployment story end to end —
// fit tiers on the EU ISP dataset, announce tier-tagged routes over a
// real BGP session on loopback TCP, replay the NetFlow trace into the
// flow-based accountant, and reconcile the bill against per-tier link
// counters.
//
//	go run ./examples/accountingpipeline
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/netip"

	transit "tieredpricing"
)

func main() {
	ds, err := transit.DatasetEUISP(1)
	if err != nil {
		log.Fatal(err)
	}
	market, err := transit.NewMarket(ds.Flows,
		transit.CED{Alpha: 1.1}, transit.Linear{Theta: 0.2}, ds.P0)
	if err != nil {
		log.Fatal(err)
	}
	out, err := market.Run(transit.ProfitWeighted{}, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted %d flows into %d tiers at prices %v\n",
		len(ds.Flows), len(out.Prices), formatted(out.Prices))

	// §5.1 — associate destinations with tiers via BGP extended
	// communities: a provider speaker replays the tagged table to a
	// customer over a live session.
	tierOf := map[netip.Prefix]int{}
	var prefixes []netip.Prefix
	for b, block := range out.Partition {
		for _, i := range block {
			tierOf[ds.Meta[i].DstPrefix] = b
			prefixes = append(prefixes, ds.Meta[i].DstPrefix)
		}
	}
	speaker, err := transit.NewSpeaker("127.0.0.1:0",
		transit.BGPOpen{AS: 64512, HoldTime: 180, ID: 1}, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		log.Fatal(err)
	}
	defer speaker.Close()
	if err := speaker.Reprice(prefixes, func(p netip.Prefix) int { return tierOf[p] }, out.Prices); err != nil {
		log.Fatal(err)
	}
	customer, err := transit.DialBGP(speaker.Addr(), transit.BGPOpen{AS: 64513, HoldTime: 180, ID: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer customer.Close()
	rib := customer.RIB()
	fmt.Printf("customer RIB holds %d tier-tagged routes after the BGP exchange\n", rib.Len())

	// §5.2(b) — flow-based accounting from the raw NetFlow streams.
	fa, err := transit.NewFlowAccountant(rib)
	if err != nil {
		log.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(transit.EmitConfig{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, stream := range streams {
		rd := transit.NewNetFlowReader(bytes.NewReader(stream))
		for {
			h, recs, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				log.Fatal(err)
			}
			fa.Ingest(h, recs)
		}
	}
	flowBill, err := transit.ComputeBill(fa.PerTierOctets(), out.Prices, ds.DurationSec)
	if err != nil {
		log.Fatal(err)
	}

	// §5.2(a) — link-based accounting: the data path steers each flow
	// onto its tier's link; SNMP counters are polled.
	lm := transit.NewLinkMeter()
	for tier := range out.Prices {
		if err := lm.AddLink(uint16(100+tier), tier); err != nil {
			log.Fatal(err)
		}
	}
	for i, f := range ds.Flows {
		route, ok := rib.Lookup(ds.Meta[i].DstPrefix.Addr().Next())
		if !ok || route.Tier == nil {
			log.Fatalf("flow %s has no tier route", f.ID)
		}
		ifIndex, _ := lm.LinkFor(int(route.Tier.Tier))
		if err := lm.Count(ifIndex, uint64(f.Demand*1e6/8*ds.DurationSec)); err != nil {
			log.Fatal(err)
		}
	}
	linkBill, err := transit.ComputeBill(transit.PerTierOctets(lm.Poll()), out.Prices, ds.DurationSec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ntier  price      flow-based bill   link-based bill")
	for tier := range out.Prices {
		fmt.Printf("  %d   $%6.2f    $%12.2f    $%12.2f\n",
			tier, out.Prices[tier], flowBill.ChargePerTier[tier], linkBill.ChargePerTier[tier])
	}
	fmt.Printf("total            $%12.2f    $%12.2f\n", flowBill.Total, linkBill.Total)
	fmt.Println("\nthe two §5.2 architectures agree (up to 1-in-1000 sampling noise), so an")
	fmt.Println("ISP can deploy tiered pricing post facto without per-tier links.")
}

func formatted(prices []float64) []string {
	out := make([]string, len(prices))
	for i, p := range prices {
		out[i] = fmt.Sprintf("$%.2f", p)
	}
	return out
}
