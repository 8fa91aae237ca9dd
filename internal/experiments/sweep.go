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

// Figures 8–16 and ablation5 are one computation over different grids:
// fit a market per grid point, take each strategy's capture curve, and
// fold the curves into a table. sweep is that computation; each artifact
// below is only its grid and its fold.

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Profit capture per bundling strategy, constant elasticity demand",
		Paper: "Figure 8(a-c): 3-4 well-chosen bundles capture 90-95%; optimal ≥ profit-weighted ≥ cost-weighted",
		Run:   captureFigure("fig8", "ced", cedStrategies()),
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Profit capture per bundling strategy, logit demand",
		Paper: "Figure 9(a-c): logit saturates faster than CED; same strategy ordering",
		Run:   captureFigure("fig9", "logit", logitStrategies()),
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Profit increase, EU ISP, linear cost model, θ ∈ {0.1, 0.2, 0.3}",
		Paper: "Figure 10: most profit attained with 2-3 bundles; higher base cost θ lowers attainable profit",
		Run: costSensitivity("fig10", []float64{0.1, 0.2, 0.3},
			func(theta float64) cost.Model { return cost.Linear{Theta: theta} }),
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Profit increase, EU ISP, concave cost model, θ ∈ {0.1, 0.2, 0.3}",
		Paper: "Figure 11: like fig10 but profit falls faster in θ (log compresses cost CV)",
		Run: costSensitivity("fig11", []float64{0.1, 0.2, 0.3},
			func(theta float64) cost.Model { return cost.Concave{Theta: theta} }),
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Profit increase, EU ISP, regional cost model, θ ∈ {1.0, 1.1, 1.2}",
		Paper: "Figure 12: higher θ = higher inter-region cost CV = more profit",
		Run: costSensitivity("fig12", []float64{1.0, 1.1, 1.2},
			func(theta float64) cost.Model { return cost.Regional{Theta: theta} }),
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
		Run: func(opts Options) (*Result, error) {
			return extremalCapture(opts, &Result{ID: "fig14", Title: "sensitivity to price elasticity α"},
				"Minimum capture over α ∈ [1.1, 10] (profit-weighted)", false, demandModels,
				[]float64{1.1, 1.5, 2, 3, 5, 7, 10},
				func(model, dataset string, alpha float64) (*core.Market, error) {
					var dm econ.Model = econ.CED{Alpha: alpha}
					if model != "ced" {
						dm = econ.Logit{Alpha: alpha, S0: defaultS0}
					}
					return datasetMarket(opts, dataset, opts.Seed, dm, cost.Linear{Theta: defaultTheta})
				})
		},
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Minimum profit capture over blended rate P0 ∈ [5, 30]",
		Paper: "Figure 15: capture patterns robust across starting prices",
		Run: func(opts Options) (*Result, error) {
			return extremalCapture(opts, &Result{ID: "fig15", Title: "sensitivity to blended rate P0"},
				"Minimum capture over P0 ∈ [5, 30] (profit-weighted)", false, demandModels,
				[]float64{5, 10, 15, 20, 25, 30},
				func(model, dataset string, p0 float64) (*core.Market, error) {
					dm, err := econ.ByName(model, defaultAlpha, defaultS0)
					if err != nil {
						return nil, err
					}
					ds, err := opts.dataset(dataset, opts.Seed)
					if err != nil {
						return nil, err
					}
					return core.NewMarket(ds.Flows, dm, cost.Linear{Theta: defaultTheta}, p0)
				})
		},
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Maximum profit capture over no-purchase share s0 ∈ (0, 0.9], logit",
		Paper: "Figure 16: capture patterns robust across market participation",
		Run: func(opts Options) (*Result, error) {
			return extremalCapture(opts, &Result{ID: "fig16", Title: "sensitivity to no-purchase share s0 (logit)"},
				"Maximum capture over s0 ∈ [0.1, 0.9] (profit-weighted)", true, []string{"logit"},
				[]float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9},
				func(_, dataset string, s0 float64) (*core.Market, error) {
					return datasetMarket(opts, dataset, opts.Seed,
						econ.Logit{Alpha: defaultAlpha, S0: s0}, cost.Linear{Theta: defaultTheta})
				})
		},
	})
	register(Experiment{
		ID:    "ablation5",
		Title: "Seed robustness: capture across independently regenerated datasets",
		Paper: "sanity check that the reproduction's conclusions are not artifacts of one synthetic draw",
		Run:   runAblation5,
	})
}

// allBundles is the bundle-count axis of the capture figures.
var allBundles = []int{1, 2, 3, 4, 5, 6}

// demandModels are the two demand models every figure reports.
var demandModels = []string{"ced", "logit"}

// swept is one grid point of a sweep: its fitted market and, per
// strategy, the outcomes at the sweep's bundle counts.
type swept struct {
	m    *core.Market
	outs [][]core.Outcome
}

// sweep fits the n markets of a grid, one task per market across
// opts.Workers, and prices each strategy's partitions — all taken from
// one bundling.Curve — at the ascending bundle counts bs only. Tasks
// derive their parameters from their index and results come back in
// grid order, so a fold over them is the same at any worker count.
func sweep(opts Options, n int, fit func(i int) (*core.Market, error),
	strategies []bundling.Strategy, bs []int) ([]swept, error) {
	return parallel.Map(context.Background(), n, opts.workerCount(),
		func(_ context.Context, i int) (swept, error) {
			m, err := fit(i)
			if err != nil {
				return swept{}, err
			}
			sw := swept{m: m, outs: make([][]core.Outcome, len(strategies))}
			for si, s := range strategies {
				partitions, err := bundling.Curve(s, m.Flows, m.Demand, bs[len(bs)-1])
				if err != nil {
					return swept{}, fmt.Errorf("%s bundling: %w", s.Name(), err)
				}
				for _, b := range bs {
					out, err := m.Price(s, b, partitions[b-1])
					if err != nil {
						return swept{}, err
					}
					sw.outs[si] = append(sw.outs[si], out)
				}
			}
			return sw, nil
		})
}

// bColumns is a table's columns: first, then one per bundle count.
func bColumns(first string, bs []int) []string {
	cols := []string{first}
	for _, b := range bs {
		cols = append(cols, fmt.Sprintf("b=%d", b))
	}
	return cols
}

// row is a table row: label, then read of each outcome.
func row(label string, outs []core.Outcome, read func(core.Outcome) float64) []string {
	cells := []string{label}
	for _, o := range outs {
		cells = append(cells, report.F(read(o)))
	}
	return cells
}

func capture(o core.Outcome) float64 { return o.Capture }

// captureFigure regenerates Figure 8 or 9: per dataset, the capture of
// every bundling strategy for 1..6 bundles at the default parameters
// (α = 1.1, P0 = $20, linear cost with θ = 0.2, s0 = 0.2). The grid is
// the datasets; the fold is one table per dataset.
func captureFigure(id, model string, strategies []bundling.Strategy) Runner {
	return func(opts Options) (*Result, error) {
		dm, err := econ.ByName(model, defaultAlpha, defaultS0)
		if err != nil {
			return nil, err
		}
		names := traces.Names()
		grid, err := sweep(opts, len(names), func(i int) (*core.Market, error) {
			return datasetMarket(opts, names[i], opts.Seed, dm, cost.Linear{Theta: defaultTheta})
		}, strategies, allBundles)
		if err != nil {
			return nil, err
		}
		res := &Result{ID: id, Title: fmt.Sprintf("profit capture, %s demand", model)}
		for i, g := range grid {
			t := report.New(
				fmt.Sprintf("Profit capture, %s demand, %s (α=%.1f, θ=%.1f, P0=$%.0f)",
					model, names[i], defaultAlpha, defaultTheta, g.m.P0),
				bColumns("strategy", allBundles)...)
			for si, s := range strategies {
				if err := t.AddRow(row(s.Name(), g.outs[si], capture)...); err != nil {
					return nil, err
				}
			}
			t.AddNote("capture = (π_new − π_blended)/(π_perflow − π_blended); 1.0 is per-flow pricing")
			res.Tables = append(res.Tables, t)
		}
		return res, nil
	}
}

// costSensitivity regenerates one of Figures 10-12: profit-weighted
// bundling on the EU ISP under one cost-model family for several θ.
func costSensitivity(id string, thetas []float64, build func(theta float64) cost.Model) Runner {
	return func(opts Options) (*Result, error) {
		return profitIncrease(opts, &Result{ID: id, Title: "cost-model sensitivity, EU ISP"},
			bundling.ProfitWeighted{}, "profit-weighted, figure-normalized", "theta", thetas,
			"rows share one normalizer (the figure's best plot), so lower-profit θ settings plateau below 1",
			func(dm econ.Model, theta float64) (*core.Market, error) {
				return datasetMarket(opts, "euisp", opts.Seed, dm, build(theta))
			})
	}
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
	return profitIncrease(opts, &Result{ID: "fig13", Title: "destination-type sensitivity, EU ISP"},
		bundling.ClassAware{Inner: bundling.ProfitWeighted{}}, "class-aware profit-weighted",
		"theta (on-net fraction)", []float64{0.05, 0.10, 0.15},
		"with just two cost classes, two bundles already capture most of the attainable profit",
		func(dm econ.Model, theta float64) (*core.Market, error) {
			split, err := core.SplitByDestType(ds.Flows, theta)
			if err != nil {
				return nil, err
			}
			return core.NewMarket(split, dm, cost.DestType{}, ds.P0)
		})
}

// profitIncrease is Figures 10–13: strategy s on the market fit builds for
// each θ, under both demand models, with each model's profits normalized
// figure-wide ("πmax in these figures is … the maximum profit of the plot
// with highest profit"). The models × θ grid is one sweep.
func profitIncrease(opts Options, res *Result, s bundling.Strategy, label, axis string,
	thetas []float64, note string, fit func(dm econ.Model, theta float64) (*core.Market, error)) (*Result, error) {
	n := len(thetas)
	grid, err := sweep(opts, len(demandModels)*n, func(i int) (*core.Market, error) {
		dm, err := econ.ByName(demandModels[i/n], defaultAlpha, defaultS0)
		if err != nil {
			return nil, err
		}
		return fit(dm, thetas[i%n])
	}, []bundling.Strategy{s}, allBundles)
	if err != nil {
		return nil, err
	}
	for mi, model := range demandModels {
		plots := grid[mi*n : (mi+1)*n]
		figureMax := math.Inf(-1)
		for _, p := range plots {
			figureMax = max(figureMax, p.m.MaxProfit)
		}
		t := report.New(fmt.Sprintf("Profit increase, euisp, %s demand (%s)", model, label),
			bColumns(axis, allBundles)...)
		for ti, p := range plots {
			base := p.m.OriginalProfit
			if err := t.AddRow(row(report.F(thetas[ti]), p.outs[0], func(o core.Outcome) float64 {
				return (o.Profit - base) / (figureMax - base)
			})...); err != nil {
				return nil, err
			}
		}
		t.AddNote("%s", note)
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// extremalCapture is Figures 14–16: per model, dataset and bundle count,
// the min (or, useMax, the max) profit-weighted capture over the
// markets fit builds for each param. A model's datasets × params grid is
// one sweep: market i is dataset i/n at param i%n. NaN captures are
// skipped, and a cell with none left prints NaN.
func extremalCapture(opts Options, res *Result, title string, useMax bool, models []string,
	params []float64, fit func(model, dataset string, param float64) (*core.Market, error)) (*Result, error) {
	names, n := traces.Names(), len(params)
	for _, model := range models {
		grid, err := sweep(opts, len(names)*n, func(i int) (*core.Market, error) {
			return fit(model, names[i/n], params[i%n])
		}, []bundling.Strategy{bundling.ProfitWeighted{}}, allBundles)
		if err != nil {
			return nil, err
		}
		t := report.New(fmt.Sprintf("%s, %s demand", title, model), bColumns("network", allBundles)...)
		for di, name := range names {
			cells := []string{name}
			for b := range allBundles {
				extremal := math.Inf(1)
				if useMax {
					extremal = math.Inf(-1)
				}
				for _, g := range grid[di*n : (di+1)*n] {
					if v := g.outs[0][b].Capture; !math.IsNaN(v) && useMax == (v > extremal) {
						extremal = v
					}
				}
				if math.IsInf(extremal, 0) {
					extremal = math.NaN()
				}
				cells = append(cells, report.F(extremal))
			}
			if err := t.AddRow(cells...); err != nil {
				return nil, err
			}
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// ablation5Seeds are ablation5's replication seeds for a base seed.
func ablation5Seeds(base int64) []int64 {
	return []int64{base, base + 101, base + 202, base + 303, base + 404}
}

// runAblation5 regenerates each dataset with five independent seeds and
// reports the mean/min/max capture of optimal and profit-weighted
// bundling at 2 and 4 tiers. A model's datasets × seeds grid is one
// sweep pricing b = 2 and 4 only; the folds run in seed order.
func runAblation5(opts Options) (*Result, error) {
	seeds := ablation5Seeds(opts.Seed)
	names, n := traces.Names(), len(seeds)
	strategies := []bundling.Strategy{bundling.Optimal{}, bundling.ProfitWeighted{}}
	res := &Result{ID: "ablation5", Title: "seed robustness"}
	for _, model := range demandModels {
		dm, err := econ.ByName(model, defaultAlpha, defaultS0)
		if err != nil {
			return nil, err
		}
		grid, err := sweep(opts, len(names)*n, func(i int) (*core.Market, error) {
			return datasetMarket(opts, names[i/n], seeds[i%n], dm, cost.Linear{Theta: defaultTheta})
		}, strategies, []int{2, 4})
		if err != nil {
			return nil, err
		}
		t := report.New(
			fmt.Sprintf("Capture across %d seeds, %s demand (mean [min..max])", n, model),
			"network", "optimal b=2", "optimal b=4", "profit-weighted b=2", "profit-weighted b=4")
		for di, name := range names {
			cells := []string{name}
			for si := range strategies {
				for k := range 2 {
					sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
					for _, g := range grid[di*n : (di+1)*n] {
						v := g.outs[si][k].Capture
						sum += v
						lo, hi = math.Min(lo, v), math.Max(hi, v)
					}
					cells = append(cells, report.F(sum/float64(n))+" ["+report.F(lo)+".."+report.F(hi)+"]")
				}
			}
			if err := t.AddRow(cells...); err != nil {
				return nil, err
			}
		}
		t.AddNote("each seed regenerates the synthetic network from scratch; tight ranges mean the figures above are properties of the calibrated population, not of one draw")
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}
