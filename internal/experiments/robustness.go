package experiments

import (
	"context"
	"fmt"
	"math"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/parallel"
	"tieredpricing/internal/report"
	"tieredpricing/internal/traces"
)

func init() {
	register(Experiment{
		ID:    "ablation5",
		Title: "Seed robustness: capture across independently regenerated datasets",
		Paper: "sanity check that the reproduction's conclusions are not artifacts of one synthetic draw",
		Run:   runAblation5,
	})
}

// ablation5Seeds are ablation5's replication seeds for a base seed.
func ablation5Seeds(base int64) []int64 {
	return []int64{base, base + 101, base + 202, base + 303, base + 404}
}

// ablation5Cells is one seed's captures in fixed column order:
// optimal b=2, optimal b=4, profit-weighted b=2, profit-weighted b=4.
type ablation5Cells [4]float64

// runAblation5 regenerates each dataset with five independent seeds and
// reports the mean/min/max capture of optimal and profit-weighted
// bundling at 2 and 4 tiers. Each replication's seed is derived from its
// index alone (base + 101·i), so the per-seed fan-out reproduces the
// serial run exactly whatever the worker count or completion order; the
// mean/min/max folds happen in seed order after the barrier.
func runAblation5(opts Options) (*Result, error) {
	seeds := ablation5Seeds(opts.Seed)
	workers := opts.workerCount()
	res := &Result{ID: "ablation5", Title: "seed robustness"}
	for _, model := range []string{"ced", "logit"} {
		dm, err := demandModel(model)
		if err != nil {
			return nil, err
		}
		t := report.New(
			fmt.Sprintf("Capture across %d seeds, %s demand (mean [min..max])", len(seeds), model),
			"network", "optimal b=2", "optimal b=4", "profit-weighted b=2", "profit-weighted b=4")
		for _, name := range traces.Names() {
			perSeed, err := parallel.Map(context.Background(), len(seeds), workers,
				func(_ context.Context, si int) (ablation5Cells, error) {
					var cells ablation5Cells
					m, err := datasetMarket(opts, name, seeds[si], dm, cost.Linear{Theta: defaultTheta})
					if err != nil {
						return cells, err
					}
					// b = 2 and 4 from one curve per strategy.
					col := 0
					for _, s := range []bundling.Strategy{bundling.Optimal{}, bundling.ProfitWeighted{}} {
						partitions, err := bundling.Curve(s, m.Flows, m.Demand, 4)
						if err != nil {
							return cells, err
						}
						for _, b := range []int{2, 4} {
							out, err := m.Price(s, b, partitions[b-1])
							if err != nil {
								return cells, err
							}
							cells[col] = out.Capture
							col++
						}
					}
					return cells, nil
				})
			if err != nil {
				return nil, err
			}
			fmtCell := func(col int) string {
				sum, min, max := 0.0, math.Inf(1), math.Inf(-1)
				for _, cells := range perSeed {
					v := cells[col]
					sum += v
					min = math.Min(min, v)
					max = math.Max(max, v)
				}
				return fmt.Sprintf("%.3f [%.3f..%.3f]", sum/float64(len(seeds)), min, max)
			}
			if err := t.AddRow(name, fmtCell(0), fmtCell(1), fmtCell(2), fmtCell(3)); err != nil {
				return nil, err
			}
		}
		t.AddNote("each seed regenerates the synthetic network from scratch; tight ranges mean the figures above are properties of the calibrated population, not of one draw")
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}
