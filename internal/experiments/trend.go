package experiments

import (
	"fmt"
	"math"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/report"
)

func init() {
	register(Experiment{
		ID:    "ext6",
		Title: "Five years of 30%/yr price decline: blended vs re-optimized tiers",
		Paper: "extension of §1: 'transit prices are falling by about 30% per year ... ISPs are evolving their business models ... to retain profits'",
		Run:   runExt6,
	})
}

// runExt6 simulates the intro's market trend: the blended rate falls 30%
// per year while competition stiffens (price sensitivity rises), and we
// compare an ISP that stays blended against one that re-optimizes three
// tiers every year.
func runExt6(opts Options) (*Result, error) {
	const (
		years       = 5
		declineRate = 0.30
		tiers       = 3
	)
	ds, err := opts.dataset("euisp", opts.Seed)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("EU ISP under a %d%%/yr price decline (CED; α rises with competition; %d re-optimized tiers)",
			int(declineRate*100), tiers),
		"year", "blended rate $", "α", "blended profit $", "tiered profit $", "tiering retains")
	var year0Blended, lastBlended float64
	for year := 0; year <= years; year++ {
		p0 := ds.P0 * math.Pow(1-declineRate, float64(year))
		// Competition: substitutes get easier to find as the market
		// commoditizes, so elasticity drifts up.
		alpha := defaultAlpha + 0.15*float64(year)
		m, err := core.NewMarket(ds.Flows, econ.CED{Alpha: alpha},
			cost.Linear{Theta: defaultTheta}, p0)
		if err != nil {
			return nil, err
		}
		out, err := m.Run(bundling.ProfitWeighted{}, tiers)
		if err != nil {
			return nil, err
		}
		if year == 0 {
			year0Blended = m.OriginalProfit
		}
		lastBlended = m.OriginalProfit
		if err := t.AddRow(report.I(year), report.F(p0), report.F(alpha),
			report.F1(m.OriginalProfit), report.F1(out.Profit),
			fmt.Sprintf("+%.1f%%", (out.Profit/m.OriginalProfit-1)*100)); err != nil {
			return nil, err
		}
	}
	t.AddNote("the blended business erodes with the market (%.0f%% of year-0 profit left by year %d); annual tier re-optimization claws back a growing share as rising elasticity widens the tiering premium",
		100*lastBlended/year0Blended, years)
	return &Result{ID: "ext6", Title: "price-decline trend", Tables: []*report.Table{t}}, nil
}
