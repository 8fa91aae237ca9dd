package experiments

import (
	"fmt"
	"math"

	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/peering"
	"tieredpricing/internal/report"
	"tieredpricing/internal/topology"
)

func init() {
	register(Experiment{
		ID:    "ext5",
		Title: "IXP expansion planning: which direct builds pay off for the CDN",
		Paper: "extension of §2.2.2: operators 'periodically re-evaluate transit bills and expand their backbone coverage if ... presence in an IXP pays off'",
		Run:   runExt5,
	})
}

// runExt5 ranks candidate IXP builds for the CDN customer: each world
// city hosts an exchange whose private-link cost grows with distance
// from the nearest CDN origin; destinations within the exchange's reach
// can be served over the link instead of blended transit.
func runExt5(opts Options) (*Result, error) {
	ds, err := opts.dataset("cdn", opts.Seed)
	if err != nil {
		return nil, err
	}
	market, err := core.NewMarket(ds.Flows, econ.CED{Alpha: defaultAlpha},
		cost.Linear{Theta: defaultTheta}, ds.P0)
	if err != nil {
		return nil, err
	}
	// The ISP-side economics for the market-failure classification: its
	// unit cost is the demand-weighted mean of the fitted flow costs.
	var wc, wq float64
	for _, f := range market.Flows {
		wc += f.Cost * f.Demand
		wq += f.Demand
	}
	base := peering.Inputs{
		BlendedRate:        ds.P0,
		ISPCost:            wc / wq,
		Margin:             0.3,
		AccountingOverhead: 1,
	}

	origins := topology.CDNOrigins()
	candidates := make([]peering.Candidate, 0, len(topology.WorldCities()))
	for _, city := range topology.WorldCities() {
		nearest := math.Inf(1)
		for _, o := range origins {
			if d := topology.Distance(o, city); d < nearest {
				nearest = d
			}
		}
		candidates = append(candidates, peering.Candidate{
			City: city,
			// Fixed exchange presence plus a per-mile wave/leased
			// component from the nearest backbone PoP.
			LinkMonthly: 3000 + 4*nearest,
			Radius:      300,
		})
	}

	dstCoords := func(i int) (float64, float64, error) {
		rec, ok := ds.Geo.Lookup(ds.Meta[i].DstPrefix.Addr())
		if !ok {
			return 0, 0, fmt.Errorf("destination %v unresolved", ds.Meta[i].DstPrefix)
		}
		return rec.Lat, rec.Lon, nil
	}
	builds, err := peering.PlanExpansion(market.Flows, dstCoords, candidates, base)
	if err != nil {
		return nil, err
	}

	t := report.New(
		fmt.Sprintf("Top IXP builds for the CDN (R=$%.0f, ISP floor=$%.2f, link $3000+4/mi, reach 300mi)",
			base.BlendedRate, base.TieredFloor()),
		"IXP", "offload Mbps", "c_direct $/Mbps", "outcome", "savings $/mo")
	var totalSavings float64
	var failures int
	shown := 0
	for _, b := range builds {
		if b.MonthlySavings > 0 {
			totalSavings += b.MonthlySavings
			if b.Outcome == peering.MarketFailure {
				failures++
			}
		}
		if shown < 10 {
			if err := t.AddRow(b.IXP, report.F1(b.OffloadMbps),
				report.F(b.DirectUnitCost), b.Outcome.String(),
				report.F1(b.MonthlySavings)); err != nil {
				return nil, err
			}
			shown++
		}
	}
	t.AddNote("%d of %d candidate builds pay off for $%s/month total savings; %d of the paying builds sit in the market-failure band the ISP could win back with tiered pricing",
		countPositive(builds), len(builds), report.F1(totalSavings), failures)
	return &Result{ID: "ext5", Title: "IXP expansion planning", Tables: []*report.Table{t}}, nil
}

func countPositive(builds []peering.Build) int {
	n := 0
	for _, b := range builds {
		if b.MonthlySavings > 0 {
			n++
		}
	}
	return n
}
