// Repricing: the §5.1 operations story at service scale. A provider
// speaker serves two customers over live BGP sessions; when the transit
// market moves (the paper: prices fall ~30% per year), the operator
// re-fits the market, re-bundles, and pushes an incremental tier
// re-pricing to every connected customer — no session resets, no config
// changes on the customer side.
//
//	go run ./examples/repricing
package main

import (
	"fmt"
	"log"
	"net/netip"

	transit "tieredpricing"
)

func main() {
	ds, err := transit.DatasetEUISP(1)
	if err != nil {
		log.Fatal(err)
	}

	speaker, err := transit.NewSpeaker("127.0.0.1:0",
		transit.BGPOpen{AS: 64512, HoldTime: 180, ID: 1},
		netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		log.Fatal(err)
	}
	defer speaker.Close()

	var customers []*transit.BGPCustomer
	for _, as := range []uint16{64601, 64602} {
		c, err := transit.DialBGP(speaker.Addr(), transit.BGPOpen{AS: as, HoldTime: 180, ID: uint32(as)})
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		customers = append(customers, c)
	}
	fmt.Printf("%d customers connected to the provider speaker\n\n", speaker.Sessions())

	// Year 1: blended rate $20, three profit-weighted tiers.
	if err := reprice(speaker, ds, 20.0, customers); err != nil {
		log.Fatal(err)
	}
	show(customers[0].RIB(), "year 1 (P0=$20)")

	// Year 2: the market fell 30%; re-fit at $14 and push the diff.
	if err := reprice(speaker, ds, 14.0, customers); err != nil {
		log.Fatal(err)
	}
	show(customers[1].RIB(), "year 2 (P0=$14, pushed as an incremental diff)")

	fmt.Println("customers repriced in place: the communities travel with the routes (§5.1).")
}

// reprice fits the market at blended rate p0, installs the resulting
// tier table on the speaker and waits until every customer holds it.
func reprice(speaker *transit.Speaker, ds *transit.Dataset, p0 float64, customers []*transit.BGPCustomer) error {
	market, err := transit.NewMarket(ds.Flows,
		transit.CED{Alpha: 1.1}, transit.Linear{Theta: 0.2}, p0)
	if err != nil {
		return err
	}
	out, err := market.Run(transit.ProfitWeighted{}, 3)
	if err != nil {
		return err
	}
	tierOf := map[netip.Prefix]int{}
	prefixes := make([]netip.Prefix, 0, len(ds.Flows))
	for b, block := range out.Partition {
		for _, i := range block {
			tierOf[ds.Meta[i].DstPrefix] = b
			prefixes = append(prefixes, ds.Meta[i].DstPrefix)
		}
	}
	if err := speaker.Reprice(prefixes,
		func(p netip.Prefix) int { return tierOf[p] }, out.Prices); err != nil {
		return err
	}
	for _, c := range customers {
		if err := c.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// show prints a customer's view of the tier structure.
func show(rib *transit.RIB, label string) {
	type tierView struct {
		price  float64
		routes int
	}
	tiers := map[uint16]*tierView{}
	for _, r := range rib.Routes() {
		if r.Tier == nil {
			continue
		}
		tv, ok := tiers[r.Tier.Tier]
		if !ok {
			tv = &tierView{price: float64(r.Tier.PriceMilli) / 1000}
			tiers[r.Tier.Tier] = tv
		}
		tv.routes++
	}
	fmt.Printf("%s — %d routes in RIB:\n", label, rib.Len())
	for tier := uint16(0); int(tier) < len(tiers); tier++ {
		tv := tiers[tier]
		fmt.Printf("  tier %d: $%6.2f/Mbps, %d destinations\n", tier, tv.price, tv.routes)
	}
	fmt.Println()
}
