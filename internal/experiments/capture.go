package experiments

import (
	"context"
	"fmt"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/parallel"
	"tieredpricing/internal/report"
	"tieredpricing/internal/traces"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Profit capture per bundling strategy, constant elasticity demand",
		Paper: "Figure 8(a-c): 3-4 well-chosen bundles capture 90-95%; optimal ≥ profit-weighted ≥ cost-weighted",
		Run: func(o Options) (*Result, error) {
			return runCaptureFigure("fig8", "ced", cedStrategies(), o)
		},
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Profit capture per bundling strategy, logit demand",
		Paper: "Figure 9(a-c): logit saturates faster than CED; same strategy ordering",
		Run: func(o Options) (*Result, error) {
			return runCaptureFigure("fig9", "logit", logitStrategies(), o)
		},
	})
}

// runCaptureFigure regenerates Figure 8 or 9: per dataset, the capture of
// every bundling strategy for 1..6 bundles at the default parameters
// (α = 1.1, P0 = $20, linear cost with θ = 0.2, s0 = 0.2).
func runCaptureFigure(id, model string, strategies []bundling.Strategy, opts Options) (*Result, error) {
	dm, err := demandModel(model)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: fmt.Sprintf("profit capture, %s demand", model)}
	// Each network's table is independent (own dataset, own market); fan
	// out per dataset, appending tables in presentation order.
	names := traces.Names()
	tables, err := parallel.Map(context.Background(), len(names), opts.workerCount(),
		func(_ context.Context, di int) (*report.Table, error) {
			name := names[di]
			m, err := datasetMarket(opts, name, opts.Seed, dm, cost.Linear{Theta: defaultTheta})
			if err != nil {
				return nil, err
			}
			t := report.New(
				fmt.Sprintf("Profit capture, %s demand, %s (α=%.1f, θ=%.1f, P0=$%.0f)",
					model, name, defaultAlpha, defaultTheta, m.P0),
				"strategy", "b=1", "b=2", "b=3", "b=4", "b=5", "b=6")
			for _, s := range strategies {
				row, err := captureRow(m, s)
				if err != nil {
					return nil, err
				}
				cells := []string{s.Name()}
				for _, v := range row {
					cells = append(cells, report.F(v))
				}
				if err := t.AddRow(cells...); err != nil {
					return nil, err
				}
			}
			t.AddNote("capture = (π_new − π_blended)/(π_perflow − π_blended); 1.0 is per-flow pricing")
			return t, nil
		})
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, tables...)
	return res, nil
}
