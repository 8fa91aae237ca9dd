package experiments

import (
	"fmt"

	"tieredpricing/internal/accounting"
	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/optimize"
	"tieredpricing/internal/report"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// The ablations of DESIGN.md §6: experiments beyond the paper's figures
// that bound or explain its design choices.

func init() {
	register(Experiment{
		ID:    "ablation1",
		Title: "Exhaustive set-partition search vs the contiguous DP optimum",
		Paper: "bounds the gap of the 'optimal' strategy against the paper's literal exhaustive search (aggregated flows)",
		Run:   runAblation1,
	})
	register(Experiment{
		ID:    "ablation2",
		Title: "Class-aware guard on/off for the destination-type cost model",
		Paper: "quantifies §4.3.1: 'the standard profit-weighting algorithm does not work well with the destination type-based cost model'",
		Run:   runAblation2,
	})
	register(Experiment{
		ID:    "ablation3",
		Title: "NetFlow cross-router dedup on/off",
		Paper: "quantifies the §4.1.1 double-counting caveat on demands and fitted prices",
		Run:   runAblation3,
	})
	register(Experiment{
		ID:    "ablation4",
		Title: "Market granularity: capture vs number of flow aggregates",
		Paper: "the §1 granularity/efficiency trade-off, measured",
		Run:   runAblation4,
	})
	register(Experiment{
		ID:    "ext1",
		Title: "95th-percentile vs average-rate billing on tiered contracts",
		Paper: "extension: the industry billing rule the paper's $/Mbps/month prices plug into",
		Run:   runExt1,
	})
}

// runAblation1 aggregates each dataset to 10 flows, searches EVERY set
// partition into ≤ 4 bundles (bundling.Exhaustive: screened by the DP's
// own objective, the shortlist re-priced for real), and compares the
// optimum against the contiguous DP — the empirical check that "optimal"
// is optimal.
func runAblation1(opts Options) (*Result, error) {
	const aggFlows, bundles = 10, 4
	t := report.New(
		fmt.Sprintf("Exhaustive (all partitions of %d aggregates into ≤%d bundles) vs DP",
			aggFlows, bundles),
		"network", "model", "partitions", "exhaustive π", "DP π", "quad DP π", "gap")
	for _, name := range traces.Names() {
		ds, err := opts.dataset(name, opts.Seed)
		if err != nil {
			return nil, err
		}
		small, err := core.AggregateFlows(ds.Flows, aggFlows)
		if err != nil {
			return nil, err
		}
		for _, model := range []string{"ced", "logit"} {
			dm, err := econ.ByName(model, defaultAlpha, defaultS0)
			if err != nil {
				return nil, err
			}
			m, err := core.NewMarket(small, dm, cost.Linear{Theta: defaultTheta}, ds.P0)
			if err != nil {
				return nil, err
			}
			row, err := ablation1Row(m, bundles)
			if err != nil {
				return nil, err
			}
			if err := t.AddRow(append([]string{name, model}, row...)...); err != nil {
				return nil, err
			}
		}
	}
	t.AddNote("gap ≈ 0 everywhere: the contiguous-in-cost DP attains the exhaustive optimum (DESIGN.md §4)")
	t.AddNote("DP π is the default SMAWK monotone solver; quad DP π the O(n²·B) reference — identical by construction")
	return &Result{ID: "ablation1", Title: "exhaustive search vs contiguous DP", Tables: []*report.Table{t}}, nil
}

// ablation1Row is one market's partition count, its exhaustive, SMAWK-DP
// and quadratic-DP profits (the two DPs must agree) and the
// exhaustive-to-DP gap. Any pricing error fails the row.
func ablation1Row(m *core.Market, bundles int) ([]string, error) {
	count, err := optimize.CountPartitions(len(m.Flows), bundles)
	if err != nil {
		return nil, err
	}
	var profits [3]float64
	for i, s := range []bundling.Strategy{bundling.Exhaustive{}, bundling.Optimal{}, bundling.Optimal{Quadratic: true}} {
		out, err := m.Run(s, bundles)
		if err != nil {
			return nil, err
		}
		profits[i] = out.Profit
	}
	gap := (profits[0] - profits[1]) / profits[0]
	return []string{report.I(int(count)), report.F1(profits[0]), report.F1(profits[1]),
		report.F1(profits[2]), fmt.Sprintf("%.2e", gap)}, nil
}

// runAblation2 compares profit-weighted bundling with and without the
// never-mix-classes guard under the destination-type cost model. The
// grid is the two demand models.
func runAblation2(opts Options) (*Result, error) {
	ds, err := opts.dataset("euisp", opts.Seed)
	if err != nil {
		return nil, err
	}
	split, err := core.SplitByDestType(ds.Flows, 0.1)
	if err != nil {
		return nil, err
	}
	strategies := []bundling.Strategy{
		bundling.ProfitWeighted{},
		bundling.ClassAware{Inner: bundling.ProfitWeighted{}},
	}
	bs := []int{2, 3, 4, 5, 6}
	grid, err := sweep(opts, len(demandModels), func(i int) (*core.Market, error) {
		dm, err := econ.ByName(demandModels[i], defaultAlpha, defaultS0)
		if err != nil {
			return nil, err
		}
		return core.NewMarket(split, dm, cost.DestType{}, ds.P0)
	}, strategies, bs)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ablation2", Title: "class-aware guard ablation"}
	for i, model := range demandModels {
		t := report.New(
			fmt.Sprintf("Destination-type cost (θ=0.1), %s demand: profit capture", model),
			bColumns("strategy", bs)...)
		for si, s := range strategies {
			if err := t.AddRow(row(s.Name(), grid[i].outs[si], capture)...); err != nil {
				return nil, err
			}
		}
		t.AddNote("the guard pins capture at its two-class maximum from b=2; the unguarded heuristic mixes on- and off-net flows into shared bundles")
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// runAblation3 replays the EU ISP NetFlow streams twice — with and
// without cross-router dedup — and fits a market on each, quantifying
// how double-counting inflates demands and distorts tier prices.
func runAblation3(opts Options) (*Result, error) {
	ds, streams, err := opts.export("euisp", opts.Seed)
	if err != nil {
		return nil, err
	}
	collect := func(c collector) (*core.Market, traces.Stats, error) {
		if err := ingestStreams(c, streams); err != nil {
			return nil, traces.Stats{}, err
		}
		rv := &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true}
		flows, _, err := demandfit.BuildFlows(c.Aggregates(), rv, ds.DurationSec)
		if err != nil {
			return nil, traces.Stats{}, err
		}
		st, err := traces.MeasureFlows(flows)
		if err != nil {
			return nil, traces.Stats{}, err
		}
		m, err := core.NewMarket(flows, econ.CED{Alpha: defaultAlpha},
			cost.Linear{Theta: defaultTheta}, ds.P0)
		if err != nil {
			return nil, traces.Stats{}, err
		}
		return m, st, nil
	}
	withDedup, stDedup, err := collect(stream.NewCollector(traces.AggregateKey))
	if err != nil {
		return nil, err
	}
	without, stRaw, err := collect(&undeduped{})
	if err != nil {
		return nil, err
	}
	outDedup, err := withDedup.Run(bundling.ProfitWeighted{}, 3)
	if err != nil {
		return nil, err
	}
	outRaw, err := without.Run(bundling.ProfitWeighted{}, 3)
	if err != nil {
		return nil, err
	}

	t := report.New("EU ISP pipeline with vs without cross-router dedup (CED, 3 tiers)",
		"quantity", "with dedup", "without dedup")
	t.MustAddRow("measured traffic (Gbps)",
		report.F1(stDedup.AggregateGbps), report.F1(stRaw.AggregateGbps))
	t.MustAddRow("demand-weighted distance (mi)",
		report.F1(stDedup.WeightedMeanDistance), report.F1(stRaw.WeightedMeanDistance))
	for b := 0; b < 3; b++ {
		t.MustAddRow(fmt.Sprintf("tier %d price ($/Mbps)", b),
			report.F(outDedup.Prices[b]), report.F(outRaw.Prices[b]))
	}
	t.MustAddRow("blended-equivalent profit ($)",
		report.F1(withDedup.OriginalProfit), report.F1(without.OriginalProfit))
	t.AddNote("without dedup, records exported by both the entry and exit PoP are counted twice: demands double where paths have 2 exporters, and every fitted dollar figure silently scales with the duplication factor")
	return &Result{ID: "ablation3", Title: "dedup ablation", Tables: []*report.Table{t}}, nil
}

// undeduped is ablation3's counterfactual collector: it counts every
// record however many routers exported it, folding each into the merge
// as a one-record aggregate with its sampling restored.
type undeduped struct {
	m   netflow.AggregateMerge
	key []byte
}

func (u *undeduped) Aggregates() []netflow.Aggregate { return u.m.SortedInto(nil) }

func (u *undeduped) Ingest(h netflow.Header, recs []netflow.Record) {
	sampling := uint64(max(h.SamplingInterval, 1))
	for i := range recs {
		r := &recs[i]
		if code, ok := traces.AggregateKey.Code(r); ok {
			u.key = traces.AggregateKey.Name(u.key[:0], code)
			a := netflow.NewAggregate(string(u.key), r)
			a.Octets, a.Records = uint64(r.Octets)*sampling, 1
			u.m.Add(a)
		}
	}
}

// runAblation4 measures optimal-bundling capture when the market is
// coarsened to k aggregates before fitting.
func runAblation4(opts Options) (*Result, error) {
	t := report.New("Optimal capture at b=3 vs market granularity (EU ISP, CED)",
		"aggregates", "capture b=3", "max profit $")
	ds, err := opts.dataset("euisp", opts.Seed)
	if err != nil {
		return nil, err
	}
	ks := []int{5, 10, 25, 50, 100, 200}
	grid, err := sweep(opts, len(ks), func(i int) (*core.Market, error) {
		flows, err := core.AggregateFlows(ds.Flows, ks[i])
		if err != nil {
			return nil, err
		}
		return core.NewMarket(flows, econ.CED{Alpha: defaultAlpha}, cost.Linear{Theta: defaultTheta}, ds.P0)
	}, []bundling.Strategy{bundling.Optimal{}}, []int{3})
	if err != nil {
		return nil, err
	}
	for _, g := range grid {
		if err := t.AddRow(report.I(len(g.m.Flows)), report.F(g.outs[0][0].Capture),
			report.F1(g.m.MaxProfit)); err != nil {
			return nil, err
		}
	}
	t.AddNote("after recalibration the attainable maximum is nearly granularity-invariant, but capture with 3 tiers declines as the market gets finer: more distinct cost points leave more headroom that few tiers cannot reach — the practical face of the §1 granularity/efficiency trade-off")
	return &Result{ID: "ablation4", Title: "granularity ablation", Tables: []*report.Table{t}}, nil
}

// runExt1 compares average-rate billing (what ComputeBill does, and what
// the counterfactuals assume) against 95th-percentile billing on a
// bursty replay of the EU ISP tiers.
func runExt1(opts Options) (*Result, error) {
	ds, err := opts.dataset("euisp", opts.Seed)
	if err != nil {
		return nil, err
	}
	market, err := core.NewMarket(ds.Flows, econ.CED{Alpha: defaultAlpha},
		cost.Linear{Theta: defaultTheta}, ds.P0)
	if err != nil {
		return nil, err
	}
	out, err := market.Run(bundling.ProfitWeighted{}, 3)
	if err != nil {
		return nil, err
	}

	// Build a day of 5-minute samples per tier: flat base rate plus a
	// deterministic diurnal swell and a short evening peak.
	const intervals = 288
	samples := map[int][]float64{}
	avg := map[int]float64{}
	for b, block := range out.Partition {
		var base float64
		for _, i := range block {
			base += market.Flows[i].Demand
		}
		row := make([]float64, intervals)
		var sum float64
		for i := range row {
			frac := float64(i) / intervals
			diurnal := 0.75 + 0.5*frac // traffic grows through the day
			v := base * diurnal
			if i >= 252 && i < 262 { // ~50-minute evening peak
				v = base * 1.9
			}
			row[i] = v
			sum += v
		}
		samples[b] = row
		avg[b] = sum / intervals
	}

	avgBill := 0.0
	for b := range out.Prices {
		avgBill += avg[b] * out.Prices[b]
	}
	p95Bill, err := accounting.PercentileBilling{}.Bill(samples, out.Prices)
	if err != nil {
		return nil, err
	}

	t := report.New("Average-rate vs 95th-percentile billing, EU ISP, 3 tiers",
		"tier", "price $/Mbps", "avg Mbps", "p95 Mbps", "avg bill $", "p95 bill $")
	for b := range out.Prices {
		if err := t.AddRow(report.I(b), report.F(out.Prices[b]),
			report.F1(avg[b]), report.F1(p95Bill.MbpsPerTier[b]),
			report.F1(avg[b]*out.Prices[b]), report.F1(p95Bill.ChargePerTier[b])); err != nil {
			return nil, err
		}
	}
	t.AddNote("totals: average $%s vs 95th percentile $%s — percentile billing charges the near-peak sustained rate while the evening burst rides free",
		report.F1(avgBill), report.F1(p95Bill.Total))
	return &Result{ID: "ext1", Title: "percentile billing extension", Tables: []*report.Table{t}}, nil
}
