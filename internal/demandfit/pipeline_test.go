package demandfit_test

// The pipeline tests collect through stream.NewCollector, and stream
// imports demandfit, so they live in the external test package.

import (
	"bytes"
	"context"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// collectDataset runs a dataset through the full NetFlow pipeline and
// returns the collected aggregates.
func collectDataset(t *testing.T, ds *traces.Dataset) []netflow.Aggregate {
	t.Helper()
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := stream.NewCollector(traces.AggregateKey)
	for _, s := range streams {
		rd := netflow.NewReader(bytes.NewReader(s))
		for {
			h, recs, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			c.Ingest(h, recs)
		}
	}
	return c.Aggregates()
}

func resolverFor(ds *traces.Dataset) *demandfit.Resolver {
	return &demandfit.Resolver{
		Geo:             ds.Geo,
		Topo:            ds.Graph,
		DistanceRegions: ds.Name == "euisp",
	}
}

// TestPipelineReproducesDataset is the §4.1.1 integration test: the
// demands, distances and regions recovered from raw NetFlow streams must
// match the generated ground truth.
func TestPipelineReproducesDataset(t *testing.T) {
	for _, name := range traces.Names() {
		ds, err := traces.ByName(name, 21)
		if err != nil {
			t.Fatal(err)
		}
		aggs := collectDataset(t, ds)
		rv := resolverFor(ds)
		// The EU ISP resolver must not path-route (entry/exit geographic
		// distance), so drop the graph there and for the CDN.
		if name != "internet2" {
			rv.Topo = nil
		}
		flows, skipped, err := demandfit.BuildFlows(aggs, rv, ds.DurationSec)
		if err != nil {
			t.Fatal(err)
		}
		if skipped != 0 {
			t.Errorf("%s: %d aggregates skipped", name, skipped)
		}
		if len(flows) != len(ds.Flows) {
			t.Fatalf("%s: recovered %d flows, want %d", name, len(flows), len(ds.Flows))
		}
		// Match recovered flows to ground truth by sorted (distance,
		// demand) signature: build index from truth.
		type sig struct{ d, q float64 }
		truth := make([]sig, len(ds.Flows))
		got := make([]sig, len(flows))
		for i := range ds.Flows {
			truth[i] = sig{ds.Flows[i].Distance, ds.Flows[i].Demand}
			got[i] = sig{flows[i].Distance, flows[i].Demand}
		}
		less := func(s []sig) func(int, int) bool {
			return func(i, j int) bool {
				if s[i].d != s[j].d {
					return s[i].d < s[j].d
				}
				return s[i].q < s[j].q
			}
		}
		sort.Slice(truth, less(truth))
		sort.Slice(got, less(got))
		for i := range truth {
			if math.Abs(got[i].d-truth[i].d) > 1e-6*(1+truth[i].d) {
				t.Fatalf("%s: distance %d: got %v, want %v", name, i, got[i].d, truth[i].d)
			}
			if math.Abs(got[i].q-truth[i].q) > 0.01*truth[i].q+0.01 {
				t.Fatalf("%s: demand %d: got %v, want %v", name, i, got[i].q, truth[i].q)
			}
		}
	}
}

func TestPipelineRegionsMatch(t *testing.T) {
	ds, err := traces.CDN(31)
	if err != nil {
		t.Fatal(err)
	}
	aggs := collectDataset(t, ds)
	flows, _, err := demandfit.BuildFlows(aggs, &demandfit.Resolver{Geo: ds.Geo}, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}
	count := func(fs []econ.Flow) map[econ.Region]int {
		m := map[econ.Region]int{}
		for _, f := range fs {
			m[f.Region]++
		}
		return m
	}
	want := count(ds.Flows)
	got := count(flows)
	for r, n := range want {
		if got[r] != n {
			t.Errorf("region %v: got %d flows, want %d", r, got[r], n)
		}
	}
}

func TestPipelineFeedsMarket(t *testing.T) {
	// End-to-end: NetFlow streams → flows → fitted market → bundling
	// counterfactual.
	ds, err := traces.EUISP(41)
	if err != nil {
		t.Fatal(err)
	}
	aggs := collectDataset(t, ds)
	flows, _, err := demandfit.BuildFlows(aggs, &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true}, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMarket(flows, econ.CED{Alpha: 1.1}, cost.Linear{Theta: 0.2}, ds.P0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Run(bundling.Optimal{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(out.Capture > 0.5 && out.Capture <= 1+1e-9) {
		t.Errorf("pipeline market capture at b=3 = %v, want substantial", out.Capture)
	}
}

func TestBuildFlowsParallelMatchesSerial(t *testing.T) {
	ds, err := traces.EUISP(51)
	if err != nil {
		t.Fatal(err)
	}
	aggs := collectDataset(t, ds)
	rv := &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true}
	serial, skippedSerial, err := demandfit.BuildFlows(aggs, rv, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, skippedPar, err := demandfit.BuildFlowsParallel(context.Background(), aggs, rv, ds.DurationSec, workers)
		if err != nil {
			t.Fatal(err)
		}
		if skippedPar != skippedSerial {
			t.Errorf("workers=%d: skipped %d, serial skipped %d", workers, skippedPar, skippedSerial)
		}
		if !reflect.DeepEqual(par, serial) {
			t.Errorf("workers=%d: parallel build diverges from serial", workers)
		}
	}
}

func TestBuildFlowsParallelCancellation(t *testing.T) {
	ds, err := traces.EUISP(52)
	if err != nil {
		t.Fatal(err)
	}
	aggs := collectDataset(t, ds)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := demandfit.BuildFlowsParallel(ctx, aggs, &demandfit.Resolver{Geo: ds.Geo}, ds.DurationSec, 4); err == nil {
		t.Error("expected error from cancelled context")
	}
}
