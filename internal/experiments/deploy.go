package experiments

import (
	"fmt"
	"math"
	"net/netip"

	"tieredpricing/internal/accounting"
	"tieredpricing/internal/bgp"
	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/peering"
	"tieredpricing/internal/report"
	"tieredpricing/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Direct peering break-even against a blended rate",
		Paper: "Figure 2: customer bypasses when c_direct < R; market failure when c_direct > (M+1)c_ISP + A",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "Tiered-pricing deployment: BGP tier tagging + both accounting architectures",
		Paper: "Figure 17 / §5: link-based (SNMP) vs flow-based (NetFlow+RIB) accounting must agree",
		Run:   runFig17,
	})
}

func runFig2(Options) (*Result, error) {
	base := peering.Inputs{
		BlendedRate:        20,
		ISPCost:            5,
		Margin:             0.3,
		AccountingOverhead: 1,
	}
	costs, err := stats.Linspace(1, 25, 25)
	if err != nil {
		return nil, err
	}
	points, err := peering.Sweep(base, costs)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Direct-peering decision (R=$%.0f, c_ISP=$%.0f, M=%.0f%%, A=$%.0f, tiered floor=$%.1f)",
			base.BlendedRate, base.ISPCost, base.Margin*100, base.AccountingOverhead,
			base.TieredFloor()),
		"c_direct", "outcome", "ISP revenue loss", "welfare loss")
	for _, p := range points {
		if err := t.AddRow(report.F1(p.DirectCost), p.Outcome.String(),
			report.F1(p.ISPRevenueLoss), report.F1(p.WelfareLoss)); err != nil {
			return nil, err
		}
	}
	t.AddNote("the market-failure band (c_direct between the tiered floor and R) is what tiered pricing eliminates")
	return &Result{ID: "fig2", Title: "direct peering break-even", Tables: []*report.Table{t}}, nil
}

// runFig17 drives the whole §5 deployment story end to end on the EU ISP
// dataset: fit the market, pick 3 profit-weighted tiers, announce the
// tier-tagged routes over a real BGP session on loopback TCP, replay the
// NetFlow trace into the flow-based accountant, route the same traffic
// over per-tier links for the link-based meter, and compare bills and
// overheads.
func runFig17(opts Options) (*Result, error) {
	const tiers = 3
	ds, err := opts.dataset("euisp", opts.Seed)
	if err != nil {
		return nil, err
	}
	market, err := core.NewMarket(ds.Flows, econ.CED{Alpha: defaultAlpha},
		cost.Linear{Theta: defaultTheta}, ds.P0)
	if err != nil {
		return nil, err
	}
	outcome, err := market.Run(bundling.ProfitWeighted{}, tiers)
	if err != nil {
		return nil, err
	}

	// Map each destination prefix to its tier.
	tierOf := make(map[netip.Prefix]int, len(ds.Flows))
	prefixes := make([]netip.Prefix, 0, len(ds.Flows))
	for b, block := range outcome.Partition {
		for _, i := range block {
			tierOf[ds.Meta[i].DstPrefix] = b
			prefixes = append(prefixes, ds.Meta[i].DstPrefix)
		}
	}

	// §5.1: a provider speaker holds the tier-tagged table and replays it
	// over a live BGP session on loopback TCP; the customer builds its
	// RIB from it.
	speaker, err := bgp.NewSpeaker("127.0.0.1:0", bgp.Open{AS: 64512, HoldTime: 180, ID: 1},
		netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		return nil, err
	}
	defer speaker.Close()
	if err := speaker.Reprice(prefixes, func(p netip.Prefix) int { return tierOf[p] }, outcome.Prices); err != nil {
		return nil, err
	}
	customer, err := bgp.DialCustomer(speaker.Addr(), bgp.Open{AS: 64513, HoldTime: 180, ID: 2})
	if err != nil {
		return nil, err
	}
	rib := customer.RIB()
	if err := customer.Close(); err != nil {
		return nil, err
	}

	// §5.2(b): flow-based accounting from the replayed NetFlow streams.
	fa, err := accounting.NewFlowAccountant(rib)
	if err != nil {
		return nil, err
	}
	_, streams, err := opts.export("euisp", opts.Seed)
	if err != nil {
		return nil, err
	}
	totalRecords, err := ingestStreams(fa, streams)
	if err != nil {
		return nil, err
	}

	// §5.2(a): link-based accounting — the data path steers each flow
	// onto its tier's link (per the tagged RIB) and SNMP counters are
	// polled.
	lm := accounting.NewLinkMeter()
	for tier := 0; tier < len(outcome.Prices); tier++ {
		if err := lm.AddLink(uint16(100+tier), tier); err != nil {
			return nil, err
		}
	}
	for i, f := range ds.Flows {
		route, ok := rib.Lookup(ds.Meta[i].DstPrefix.Addr().Next())
		if !ok || route.Tier == nil {
			return nil, fmt.Errorf("fig17: flow %q has no tier route", f.ID)
		}
		ifIndex, ok := lm.LinkFor(int(route.Tier.Tier))
		if !ok {
			return nil, fmt.Errorf("fig17: no link for tier %d", route.Tier.Tier)
		}
		octets := uint64(f.Demand * 1e6 / 8 * ds.DurationSec)
		if err := lm.Count(ifIndex, octets); err != nil {
			return nil, err
		}
	}

	flowBill, err := accounting.ComputeBill(fa.PerTierOctets(), outcome.Prices, ds.DurationSec)
	if err != nil {
		return nil, err
	}
	linkBill, err := accounting.ComputeBill(accounting.PerTierOctets(lm.Poll()), outcome.Prices, ds.DurationSec)
	if err != nil {
		return nil, err
	}

	t := report.New("Per-tier accounting, EU ISP, 3 profit-weighted tiers",
		"tier", "price $/Mbps", "flow-based Mbps", "link-based Mbps", "flow-based $", "link-based $")
	for tier := 0; tier < len(outcome.Prices); tier++ {
		if err := t.AddRow(report.I(tier), report.F(outcome.Prices[tier]),
			report.F1(flowBill.MbpsPerTier[tier]), report.F1(linkBill.MbpsPerTier[tier]),
			report.F1(flowBill.ChargePerTier[tier]), report.F1(linkBill.ChargePerTier[tier])); err != nil {
			return nil, err
		}
	}
	agree := math.Abs(flowBill.Total-linkBill.Total) / linkBill.Total
	t.AddNote("total: flow-based $%s vs link-based $%s (relative difference %.4f%%, from 1-in-%d sampling)",
		report.F1(flowBill.Total), report.F1(linkBill.Total), agree*100, ds.SamplingInterval)
	t.AddNote("unrouted octets: %d; routes in customer RIB: %d", fa.Unrouted(), rib.Len())

	ov := accounting.Overhead{PerTierLink: 450, CollectorFixed: 900, PerMillionRecords: 12}
	t2 := report.New("Accounting overhead vs tier count (§5.2)",
		"tiers", "link-based $/mo", "flow-based $/mo")
	for _, n := range []int{1, 2, 3, 4, 6, 10} {
		if err := t2.AddRow(report.I(n),
			report.F1(ov.LinkBased(n)), report.F1(ov.FlowBased(totalRecords))); err != nil {
			return nil, err
		}
	}
	t2.AddNote("link-based overhead grows with tiers (a session+link each); flow-based is flat in tiers (%d records processed)", totalRecords)
	return &Result{ID: "fig17", Title: "deployment pipeline", Tables: []*report.Table{t, t2}}, nil
}
