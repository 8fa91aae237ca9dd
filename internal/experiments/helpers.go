package experiments

import (
	"bytes"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// Default evaluation parameters of §4.2.2: price sensitivity α = 1.1,
// blended rate P0 = $20, linear-cost base fraction θ = 0.2, logit
// no-purchase share s0 = 0.2.
const (
	defaultAlpha = 1.1
	defaultTheta = 0.2
	defaultS0    = 0.2
)

// cedStrategies mirrors the Figure 8 legend.
func cedStrategies() []bundling.Strategy {
	return []bundling.Strategy{
		bundling.Optimal{},
		bundling.CostWeighted{},
		bundling.ProfitWeighted{},
		bundling.DemandWeighted{},
		bundling.CostDivision{},
		bundling.IndexDivision{},
	}
}

// logitStrategies mirrors the Figure 9 legend (no separate
// demand-weighted entry: under logit, potential profit is proportional to
// demand, Eq. 13).
func logitStrategies() []bundling.Strategy {
	return []bundling.Strategy{
		bundling.Optimal{},
		bundling.CostWeighted{},
		bundling.ProfitWeighted{},
		bundling.CostDivision{},
		bundling.IndexDivision{},
	}
}

// pipeStats summarizes a pipeline collection pass.
type pipeStats struct {
	records    int
	duplicates int
	dropped    int
}

// collectedDataset runs a preset dataset through the full §4.1.1
// pipeline — NetFlow export, cross-router dedup, endpoint resolution —
// returning the recovered flows.
func collectedDataset(opts Options, name string, seed int64) (*traces.Dataset, []econ.Flow, pipeStats, error) {
	ds, streams, err := opts.export(name, seed)
	if err != nil {
		return nil, nil, pipeStats{}, err
	}
	c := stream.NewCollector(traces.AggregateKey)
	if _, err := ingestStreams(c, streams); err != nil {
		return nil, nil, pipeStats{}, err
	}
	flows, _, err := demandfit.BuildFlows(c.Aggregates(), demandfit.NewResolver(ds.Name, ds.Geo), ds.DurationSec)
	if err != nil {
		return nil, nil, pipeStats{}, err
	}
	records, dups, dropped, _ := c.Stats()
	return ds, flows, pipeStats{records: records, duplicates: dups, dropped: dropped}, nil
}

// collector is what ablation3 ingests into and reads aggregates back
// out of: the pipeline's collector, or its no-dedup counterfactual.
type collector interface {
	netflow.Sink
	Aggregates() []netflow.Aggregate
}

// ingestStreams feeds every router stream into a sink and returns the
// records handed over.
func ingestStreams(sink netflow.Sink, streams map[string][]byte) (records int, err error) {
	for _, s := range streams {
		n, err := netflow.Feed(sink, bytes.NewReader(s))
		records += n
		if err != nil {
			return records, err
		}
	}
	return records, nil
}

// datasetMarket fits the default §4.2.2 market over a preset dataset's
// generated flows.
func datasetMarket(opts Options, name string, seed int64, dm econ.Model, cm cost.Model) (*core.Market, error) {
	ds, err := opts.dataset(name, seed)
	if err != nil {
		return nil, err
	}
	return core.NewMarket(ds.Flows, dm, cm, ds.P0)
}
