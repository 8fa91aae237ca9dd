package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"tieredpricing/internal/accounting"
	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/parallel"
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

// maxBundles is the bundle-count axis of the capture figures.
const maxBundles = 6

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
	skipped    int
}

// collectedDataset builds a preset dataset and runs it through the full
// §4.1.1 pipeline — NetFlow emission, cross-router dedup, endpoint
// resolution — returning the recovered flows.
func collectedDataset(opts Options, name string, seed int64) (*traces.Dataset, []econ.Flow, pipeStats, error) {
	ds, err := opts.dataset(name, seed)
	if err != nil {
		return nil, nil, pipeStats{}, err
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
	if err != nil {
		return nil, nil, pipeStats{}, err
	}
	c := netflow.NewCollector(traces.AggregateKey)
	if err := ingestStreams(c, streams); err != nil {
		return nil, nil, pipeStats{}, err
	}
	rv := &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: ds.Name == "euisp"}
	if ds.Name == "internet2" {
		rv.Topo = ds.Graph
	}
	flows, skipped, err := demandfit.BuildFlows(c.Aggregates(), rv, ds.DurationSec)
	if err != nil {
		return nil, nil, pipeStats{}, err
	}
	records, dups, dropped := c.Stats()
	return ds, flows, pipeStats{records: records, duplicates: dups, dropped: dropped, skipped: skipped}, nil
}

// ingestStreams feeds every router stream into a collector.
func ingestStreams(c *netflow.Collector, streams map[string][]byte) error {
	for _, stream := range streams {
		rd := netflow.NewReader(bytes.NewReader(stream))
		for {
			h, recs, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			c.Ingest(h, recs)
		}
	}
	return nil
}

// resolveEUISP converts a collector's aggregates to flows using the EU
// ISP's resolution rules (geographic entry/exit distance, distance-based
// regions).
func resolveEUISP(c *netflow.Collector, ds *traces.Dataset) ([]econ.Flow, error) {
	rv := &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true}
	flows, _, err := demandfit.BuildFlows(c.Aggregates(), rv, ds.DurationSec)
	return flows, err
}

// billPercentile prices per-tier 5-minute samples at the 95th percentile.
func billPercentile(samples map[int][]float64, prices []float64) (accounting.Bill, error) {
	return accounting.PercentileBilling{}.Bill(samples, prices)
}

// demandModel constructs the named demand model at the default
// evaluation parameters.
func demandModel(name string) (econ.Model, error) {
	switch name {
	case "ced":
		return econ.CED{Alpha: defaultAlpha}, nil
	case "logit":
		return econ.Logit{Alpha: defaultAlpha, S0: defaultS0}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown demand model %q", name)
	}
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

// captureRow runs one strategy over b = 1..maxBundles and returns the
// capture series. The repricings at different bundle counts are
// independent, so they fan out across workers goroutines; slot b-1 of
// the row holds bundle count b whichever finishes first.
func captureRow(m *core.Market, s bundling.Strategy, workers int) ([]float64, error) {
	return parallel.Map(context.Background(), maxBundles, workers,
		func(_ context.Context, i int) (float64, error) {
			res, err := m.Run(s, i+1)
			if err != nil {
				return 0, err
			}
			return res.Capture, nil
		})
}

// profitRow runs one strategy over b = 1..maxBundles and returns raw
// profits (for the figure-normalized sensitivity plots), fanning out per
// bundle count like captureRow.
func profitRow(m *core.Market, s bundling.Strategy, workers int) ([]float64, error) {
	return parallel.Map(context.Background(), maxBundles, workers,
		func(_ context.Context, i int) (float64, error) {
			res, err := m.Run(s, i+1)
			if err != nil {
				return 0, err
			}
			return res.Profit, nil
		})
}
