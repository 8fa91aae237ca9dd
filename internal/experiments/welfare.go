package experiments

import (
	"fmt"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/report"
)

func init() {
	register(Experiment{
		ID:    "ext4",
		Title: "Welfare accounting: does tiering raise consumer surplus at market scale?",
		Paper: "extension of §2.2.1/Figure 1: 'this price setup not only increases ISP profit but also increases consumer surplus and thus social welfare' — tested on the full datasets",
		Run:   runExt4,
	})
}

// surplusModel is a demand model that can also report aggregate consumer
// surplus (both CED and Logit can).
type surplusModel interface {
	econ.Model
	Surplus(flows []econ.Flow, partition [][]int, prices []float64) (float64, error)
}

// runExt4 traces ISP profit, consumer surplus and social welfare across
// optimal bundlings of growing tier count, all normalized to the blended
// status quo (1.000 = no change).
func runExt4(opts Options) (*Result, error) {
	res := &Result{ID: "ext4", Title: "welfare accounting"}
	for _, model := range []string{"ced", "logit"} {
		dm, err := econ.ByName(model, defaultAlpha, defaultS0)
		if err != nil {
			return nil, err
		}
		sm, ok := dm.(surplusModel)
		if !ok {
			return nil, fmt.Errorf("model %q cannot report surplus", model)
		}
		t := report.New(
			fmt.Sprintf("Profit / surplus / welfare vs tiers (optimal bundling, %s demand, EU ISP; 1.000 = blended status quo)", model),
			"tiers", "profit", "consumer surplus", "social welfare")
		ds, err := opts.dataset("euisp", opts.Seed)
		if err != nil {
			return nil, err
		}
		m, err := datasetMarket(opts, "euisp", opts.Seed, dm, cost.Linear{Theta: defaultTheta})
		if err != nil {
			return nil, err
		}
		one := econ.OneBundle(len(m.Flows))
		baseSurplus, err := sm.Surplus(m.Flows, one, []float64{ds.P0})
		if err != nil {
			return nil, err
		}
		baseWelfare := m.OriginalProfit + baseSurplus

		addRow := func(label string, partition [][]int, prices []float64) error {
			profit, err := sm.Profit(m.Flows, partition, prices)
			if err != nil {
				return err
			}
			surplus, err := sm.Surplus(m.Flows, partition, prices)
			if err != nil {
				return err
			}
			return t.AddRow(label,
				report.F(profit/m.OriginalProfit),
				report.F(surplus/baseSurplus),
				report.F((profit+surplus)/baseWelfare))
		}
		if err := addRow("blended", one, []float64{ds.P0}); err != nil {
			return nil, err
		}
		curve, err := m.Curve(bundling.Optimal{}, 6)
		if err != nil {
			return nil, err
		}
		for i, out := range curve[1:] {
			if err := addRow(report.I(i+2), out.Partition, out.Prices); err != nil {
				return nil, err
			}
		}
		singles := econ.Singletons(len(m.Flows))
		perFlowPrices, err := sm.PriceBundles(m.Flows, singles)
		if err != nil {
			return nil, err
		}
		if err := addRow("per-flow", singles, perFlowPrices); err != nil {
			return nil, err
		}
		t.AddNote("profit rises by construction; whether consumers share the gains (Figure 1's claim) depends on how many flows the blended rate was overpricing vs underpricing")
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}
