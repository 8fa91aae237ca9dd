package transit

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section, each regenerating the artifact from
// scratch (dataset synthesis, model fitting, bundling, pricing). Run with
//
//	go test -bench=. -benchmem
//
// plus micro-benchmarks for the hot paths (bundle pricing, the optimal
// DP, the logit fixed point, NetFlow collection).

import (
	"io"
	"runtime"
	"testing"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/experiments"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig1BlendedVsTiered(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig2PeeringBreakEven(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3CEDDemandCurves(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4CEDProfitCurves(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5LogitDemandCurves(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6ConcaveFit(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkTable1Datasets(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkFig8ProfitCaptureCED(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9ProfitCaptureLogit(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkFig10LinearCostSensitivity(b *testing.B) {
	benchExperiment(b, "fig10")
}
func BenchmarkFig11ConcaveCostSensitivity(b *testing.B) {
	benchExperiment(b, "fig11")
}
func BenchmarkFig12RegionalCostSensitivity(b *testing.B) {
	benchExperiment(b, "fig12")
}
func BenchmarkFig13DestTypeSensitivity(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14AlphaSensitivity(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15BlendedRateSensitivity(b *testing.B) {
	benchExperiment(b, "fig15")
}
func BenchmarkFig16MarketShareSensitivity(b *testing.B) {
	benchExperiment(b, "fig16")
}
func BenchmarkFig17AccountingPipeline(b *testing.B) { benchExperiment(b, "fig17") }

// Full-evaluation sweep: every registered experiment, serial vs fanned
// out. The pair tracks the parallel engine's speedup in the perf
// trajectory (on an N-core runner the parallel run should approach N×
// until the longest single experiment dominates).

func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunAll(experiments.Options{Seed: 1, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkFullEvaluationSerial(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkFullEvaluationParallel(b *testing.B) {
	benchRunAll(b, runtime.NumCPU())
}
func BenchmarkFullEvaluationParallel4(b *testing.B) { benchRunAll(b, 4) }

// Micro-benchmarks for the hot paths.

// benchMarket fits a 200-flow EU ISP market once for reuse.
func benchMarket(b *testing.B, dm econ.Model) *core.Market {
	b.Helper()
	ds, err := traces.EUISP(1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMarket(ds.Flows, dm, cost.Linear{Theta: 0.2}, ds.P0)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkOptimalBundlingCED(b *testing.B) {
	m := benchMarket(b, econ.CED{Alpha: 1.1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(bundling.Optimal{}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalBundlingLogit(b *testing.B) {
	m := benchMarket(b, econ.Logit{Alpha: 1.1, S0: 0.2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(bundling.Optimal{}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfitWeightedBundling(b *testing.B) {
	m := benchMarket(b, econ.CED{Alpha: 1.1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(bundling.ProfitWeighted{}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogitPriceBundlesSingletons(b *testing.B) {
	m := benchMarket(b, econ.Logit{Alpha: 1.1, S0: 0.2})
	parts := econ.Singletons(len(m.Flows))
	logit := econ.Logit{Alpha: 1.1, S0: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logit.PriceBundles(m.Flows, parts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarketFit(b *testing.B) {
	ds, err := traces.EUISP(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewMarket(ds.Flows, econ.CED{Alpha: 1.1},
			cost.Linear{Theta: 0.2}, ds.P0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetFlowCollection(b *testing.B) {
	ds, err := traces.EUISP(1)
	if err != nil {
		b.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	var total int
	for _, s := range streams {
		total += len(s)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := stream.NewCollector(traces.AggregateKey)
		for _, s := range streams {
			rd := netflow.NewReader(newSliceReader(s))
			for {
				h, recs, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				c.Ingest(h, recs)
			}
		}
		if len(c.Aggregates()) == 0 {
			b.Fatal("no aggregates")
		}
	}
}

// sliceReader is a minimal io.Reader over a byte slice (avoids importing
// bytes just for the benchmark).
type sliceReader struct {
	data []byte
	off  int
}

func newSliceReader(data []byte) *sliceReader { return &sliceReader{data: data} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// Ablation and extension benchmarks (DESIGN.md §6).

func BenchmarkAblation1ExhaustiveVsDP(b *testing.B)  { benchExperiment(b, "ablation1") }
func BenchmarkAblation2ClassAwareGuard(b *testing.B) { benchExperiment(b, "ablation2") }
func BenchmarkAblation3DedupBias(b *testing.B)       { benchExperiment(b, "ablation3") }
func BenchmarkAblation4Granularity(b *testing.B)     { benchExperiment(b, "ablation4") }
func BenchmarkExt1PercentileBilling(b *testing.B)    { benchExperiment(b, "ext1") }
func BenchmarkExt2ProductTaxonomy(b *testing.B)      { benchExperiment(b, "ext2") }
func BenchmarkExt3TagAwareRouting(b *testing.B)      { benchExperiment(b, "ext3") }
func BenchmarkExt4WelfareAccounting(b *testing.B)    { benchExperiment(b, "ext4") }
func BenchmarkAblation5SeedRobustness(b *testing.B)  { benchExperiment(b, "ablation5") }
func BenchmarkExt5IXPExpansion(b *testing.B)         { benchExperiment(b, "ext5") }
func BenchmarkExt6PriceDeclineTrend(b *testing.B)    { benchExperiment(b, "ext6") }
