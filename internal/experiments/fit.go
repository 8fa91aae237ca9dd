package experiments

import (
	"context"

	"tieredpricing/internal/parallel"
	"tieredpricing/internal/report"
	"tieredpricing/internal/stats"
	"tieredpricing/internal/traces"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Concave distance-to-cost curve fit on leased-line price sheets",
		Paper: "Figure 6: ITU fit y=0.43·log_9.43(x)+0.99; NTT fit y=0.03·log_1.12(x)+1.01",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "table1",
		Title: "Dataset statistics (synthetic reconstructions vs paper)",
		Paper: "Table 1: EU ISP 54mi/0.70/37Gbps/1.71; CDN 1988/0.59/96/2.28; Internet2 660/0.54/4/4.53",
		Run:   runTable1,
	})
}

func runFig6(opts Options) (*Result, error) {
	t := report.New("Concave fit y = a·log_b(x) + c on normalized price sheets",
		"sheet", "a (paper)", "b (paper)", "c (paper)", "a (fit)", "c (fit)", "R²")
	for _, build := range []func(int64) (traces.PriceSheet, error){
		traces.ITUPriceSheet, traces.NTTPriceSheet,
	} {
		sheet, err := build(opts.Seed)
		if err != nil {
			return nil, err
		}
		fit, err := stats.FitConcave(sheet.Distances, sheet.Prices)
		if err != nil {
			return nil, err
		}
		// Only A = a/ln(b) is identified; re-express the fit in the
		// sheet's generating base for a like-for-like comparison.
		a, c, err := fit.InBase(sheet.B)
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(sheet.Name,
			report.F(sheet.A), report.F(sheet.B), report.F(sheet.C),
			report.F(a), report.F(c), report.F(fit.R2)); err != nil {
			return nil, err
		}
	}
	t.AddNote("the (a, b) pair is over-parameterized — only a/ln(b) is identified — so the fitted a is reported in the generating base")
	return &Result{ID: "fig6", Title: "concave distance-to-cost fit", Tables: []*report.Table{t}}, nil
}

func runTable1(opts Options) (*Result, error) {
	t := report.New("Table 1: data sets (paper → measured through the full NetFlow pipeline)",
		"network", "flows", "w-avg dist (paper)", "w-avg dist", "CV dist (paper)", "CV dist",
		"traffic Gbps (paper)", "traffic Gbps", "CV demand (paper)", "CV demand", "dup records")
	paper := map[string]traces.Targets{
		"euisp":     traces.EUISPTargets,
		"cdn":       traces.CDNTargets,
		"internet2": traces.Internet2Targets,
	}
	// The three pipelines are independent; fan out per dataset.
	names := traces.Names()
	rows, err := parallel.Map(context.Background(), len(names), opts.workerCount(),
		func(_ context.Context, i int) ([]string, error) {
			ds, flows, pipe, err := collectedDataset(opts, names[i], opts.Seed)
			if err != nil {
				return nil, err
			}
			st, err := traces.MeasureFlows(flows)
			if err != nil {
				return nil, err
			}
			want := paper[ds.Name]
			return []string{ds.Name, report.I(st.Flows),
				report.F1(want.WeightedMeanDistance), report.F1(st.WeightedMeanDistance),
				report.F(want.DistanceCV), report.F(st.DistanceCV),
				report.F1(want.AggregateGbps), report.F1(st.AggregateGbps),
				report.F(want.DemandCV), report.F(st.DemandCV),
				report.I(pipe.duplicates)}, nil
		})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := t.AddRow(row...); err != nil {
			return nil, err
		}
	}
	t.AddNote("measured columns come from NetFlow emission → cross-router dedup → GeoIP/topology distance resolution (§4.1.1), not from the generator's ground truth")
	return &Result{ID: "table1", Title: "dataset statistics", Tables: []*report.Table{t}}, nil
}
