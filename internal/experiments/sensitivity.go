package experiments

import (
	"context"
	"fmt"
	"math"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/parallel"
	"tieredpricing/internal/report"
	"tieredpricing/internal/traces"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Profit increase, EU ISP, linear cost model, θ ∈ {0.1, 0.2, 0.3}",
		Paper: "Figure 10: most profit attained with 2-3 bundles; higher base cost θ lowers attainable profit",
		Run: func(o Options) (*Result, error) {
			return runCostSensitivity("fig10", o,
				[]float64{0.1, 0.2, 0.3},
				func(theta float64) cost.Model { return cost.Linear{Theta: theta} })
		},
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Profit increase, EU ISP, concave cost model, θ ∈ {0.1, 0.2, 0.3}",
		Paper: "Figure 11: like fig10 but profit falls faster in θ (log compresses cost CV)",
		Run: func(o Options) (*Result, error) {
			return runCostSensitivity("fig11", o,
				[]float64{0.1, 0.2, 0.3},
				func(theta float64) cost.Model { return cost.Concave{Theta: theta} })
		},
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Profit increase, EU ISP, regional cost model, θ ∈ {1.0, 1.1, 1.2}",
		Paper: "Figure 12: higher θ = higher inter-region cost CV = more profit",
		Run: func(o Options) (*Result, error) {
			return runCostSensitivity("fig12", o,
				[]float64{1.0, 1.1, 1.2},
				func(theta float64) cost.Model { return cost.Regional{Theta: theta} })
		},
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Profit increase, EU ISP, destination-type cost model, θ ∈ {0.05, 0.1, 0.15}",
		Paper: "Figure 13: two traffic classes (on/off-net) ⇒ two class-aware bundles capture most profit",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Minimum profit capture over price sensitivity α ∈ [1, 10]",
		Paper: "Figure 14: capture patterns robust across α (EU ISP ~0.8 at two bundles)",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Minimum profit capture over blended rate P0 ∈ [5, 30]",
		Paper: "Figure 15: capture patterns robust across starting prices",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Maximum profit capture over no-purchase share s0 ∈ (0, 0.9], logit",
		Paper: "Figure 16: capture patterns robust across market participation",
		Run:   runFig16,
	})
}

// runCostSensitivity regenerates Figures 10-12: profit-weighted bundling
// on the EU ISP under one cost-model family for several θ, with profits
// normalized figure-wide ("πmax in these figures is … the maximum profit
// of the plot with highest profit"). Both demand models are reported.
func runCostSensitivity(id string, opts Options, thetas []float64,
	build func(theta float64) cost.Model) (*Result, error) {
	res := &Result{ID: id, Title: "cost-model sensitivity, EU ISP"}
	workers := opts.workerCount()
	for _, model := range []string{"ced", "logit"} {
		dm, err := demandModel(model)
		if err != nil {
			return nil, err
		}
		// Each θ refits the market from scratch; the fits are independent,
		// so fan out per θ and take the figure-wide normalizer afterwards.
		markets, err := parallel.Map(context.Background(), len(thetas), workers,
			func(_ context.Context, i int) (*core.Market, error) {
				return datasetMarket(opts, "euisp", opts.Seed, dm, build(thetas[i]))
			})
		if err != nil {
			return nil, err
		}
		figureMax := math.Inf(-1)
		for _, m := range markets {
			if m.MaxProfit > figureMax {
				figureMax = m.MaxProfit
			}
		}
		t := report.New(
			fmt.Sprintf("Profit increase, euisp, %s demand (profit-weighted, figure-normalized)", model),
			"theta", "b=1", "b=2", "b=3", "b=4", "b=5", "b=6")
		for i, theta := range thetas {
			profits, err := profitRow(markets[i], bundling.ProfitWeighted{})
			if err != nil {
				return nil, err
			}
			cells := []string{report.F(theta)}
			for _, pi := range profits {
				cells = append(cells, report.F(
					(pi-markets[i].OriginalProfit)/(figureMax-markets[i].OriginalProfit)))
			}
			if err := t.AddRow(cells...); err != nil {
				return nil, err
			}
		}
		t.AddNote("rows share one normalizer (the figure's best plot), so lower-profit θ settings plateau below 1")
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// runFig13 regenerates Figure 13: the destination-type cost model with
// the paper's class-aware profit-weighted heuristic ("never group traffic
// from two different classes into the same bundle"), with θ the on-net
// traffic fraction applied by splitting every flow (§3.3).
func runFig13(opts Options) (*Result, error) {
	ds, err := opts.dataset("euisp", opts.Seed)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig13", Title: "destination-type sensitivity, EU ISP"}
	strategy := bundling.ClassAware{Inner: bundling.ProfitWeighted{}}
	workers := opts.workerCount()
	for _, model := range []string{"ced", "logit"} {
		dm, err := demandModel(model)
		if err != nil {
			return nil, err
		}
		thetas := []float64{0.05, 0.10, 0.15}
		markets, err := parallel.Map(context.Background(), len(thetas), workers,
			func(_ context.Context, i int) (*core.Market, error) {
				split, err := core.SplitByDestType(ds.Flows, thetas[i])
				if err != nil {
					return nil, err
				}
				return core.NewMarket(split, dm, cost.DestType{}, ds.P0)
			})
		if err != nil {
			return nil, err
		}
		figureMax := math.Inf(-1)
		for _, m := range markets {
			if m.MaxProfit > figureMax {
				figureMax = m.MaxProfit
			}
		}
		t := report.New(
			fmt.Sprintf("Profit increase, euisp, %s demand (class-aware profit-weighted)", model),
			"theta (on-net fraction)", "b=1", "b=2", "b=3", "b=4", "b=5", "b=6")
		for i, theta := range thetas {
			profits, err := profitRow(markets[i], strategy)
			if err != nil {
				return nil, err
			}
			cells := []string{report.F(theta)}
			for _, pi := range profits {
				cells = append(cells, report.F(
					(pi-markets[i].OriginalProfit)/(figureMax-markets[i].OriginalProfit)))
			}
			if err := t.AddRow(cells...); err != nil {
				return nil, err
			}
		}
		t.AddNote("with just two cost classes, two bundles already capture most of the attainable profit")
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// extremalCapture computes, per dataset and bundle count, the extremal
// (min or max) profit-weighted capture over a family of markets, one
// table per demand model. The family's markets are replications over a
// swept parameter; their capture curves fan out across workers and the
// extremum is folded in parameter order (min/max are order-independent,
// but the fold stays deterministic regardless).
func extremalCapture(res *Result, title string, useMax bool, models []string, workers int,
	family func(model, dataset string) ([]*core.Market, error)) error {
	for _, model := range models {
		t := report.New(fmt.Sprintf("%s, %s demand", title, model),
			"network", "b=1", "b=2", "b=3", "b=4", "b=5", "b=6")
		names := traces.Names()
		rows, err := parallel.Map(context.Background(), len(names), workers,
			func(_ context.Context, di int) ([]string, error) {
				name := names[di]
				extremal := make([]float64, maxBundles)
				for b := range extremal {
					if useMax {
						extremal[b] = math.Inf(-1)
					} else {
						extremal[b] = math.Inf(1)
					}
				}
				markets, err := family(model, name)
				if err != nil {
					return nil, err
				}
				captures, err := parallel.Map(context.Background(), len(markets), workers,
					func(_ context.Context, mi int) ([]float64, error) {
						return captureRow(markets[mi], bundling.ProfitWeighted{})
					})
				if err != nil {
					return nil, err
				}
				for _, row := range captures {
					for b, v := range row {
						if math.IsNaN(v) {
							continue
						}
						if useMax == (v > extremal[b]) {
							extremal[b] = v
						}
					}
				}
				cells := []string{name}
				for _, v := range extremal {
					if math.IsInf(v, 0) {
						v = math.NaN()
					}
					cells = append(cells, report.F(v))
				}
				return cells, nil
			})
		if err != nil {
			return err
		}
		for _, cells := range rows {
			if err := t.AddRow(cells...); err != nil {
				return err
			}
		}
		res.Tables = append(res.Tables, t)
	}
	return nil
}

func runFig14(opts Options) (*Result, error) {
	res := &Result{ID: "fig14", Title: "sensitivity to price elasticity α"}
	workers := opts.workerCount()
	family := func(model, dataset string) ([]*core.Market, error) {
		alphas := []float64{1.1, 1.5, 2, 3, 5, 7, 10}
		return parallel.Map(context.Background(), len(alphas), workers,
			func(_ context.Context, i int) (*core.Market, error) {
				var dm econ.Model
				if model == "ced" {
					dm = econ.CED{Alpha: alphas[i]}
				} else {
					dm = econ.Logit{Alpha: alphas[i], S0: defaultS0}
				}
				return datasetMarket(opts, dataset, opts.Seed, dm, cost.Linear{Theta: defaultTheta})
			})
	}
	if err := extremalCapture(res, "Minimum capture over α ∈ [1.1, 10] (profit-weighted)",
		false, []string{"ced", "logit"}, workers, family); err != nil {
		return nil, err
	}
	return res, nil
}

func runFig15(opts Options) (*Result, error) {
	res := &Result{ID: "fig15", Title: "sensitivity to blended rate P0"}
	workers := opts.workerCount()
	family := func(model, dataset string) ([]*core.Market, error) {
		dm, err := demandModel(model)
		if err != nil {
			return nil, err
		}
		ds, err := opts.dataset(dataset, opts.Seed)
		if err != nil {
			return nil, err
		}
		p0s := []float64{5, 10, 15, 20, 25, 30}
		return parallel.Map(context.Background(), len(p0s), workers,
			func(_ context.Context, i int) (*core.Market, error) {
				return core.NewMarket(ds.Flows, dm, cost.Linear{Theta: defaultTheta}, p0s[i])
			})
	}
	if err := extremalCapture(res, "Minimum capture over P0 ∈ [5, 30] (profit-weighted)",
		false, []string{"ced", "logit"}, workers, family); err != nil {
		return nil, err
	}
	return res, nil
}

func runFig16(opts Options) (*Result, error) {
	res := &Result{ID: "fig16", Title: "sensitivity to no-purchase share s0 (logit)"}
	workers := opts.workerCount()
	family := func(model, dataset string) ([]*core.Market, error) {
		s0s := []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
		return parallel.Map(context.Background(), len(s0s), workers,
			func(_ context.Context, i int) (*core.Market, error) {
				return datasetMarket(opts, dataset, opts.Seed,
					econ.Logit{Alpha: defaultAlpha, S0: s0s[i]}, cost.Linear{Theta: defaultTheta})
			})
	}
	if err := extremalCapture(res, "Maximum capture over s0 ∈ [0.1, 0.9] (profit-weighted)",
		true, []string{"logit"}, workers, family); err != nil {
		return nil, err
	}
	return res, nil
}
