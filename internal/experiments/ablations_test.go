package experiments

import (
	"fmt"
	"strings"
	"testing"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/traces"
)

func TestAblation1DPMatchesExhaustive(t *testing.T) {
	res := runExperiment(t, "ablation1")
	for _, row := range res.Tables[0].Rows {
		exhaustive, dp := cell(t, row[3]), cell(t, row[4])
		if dp < exhaustive-1e-6*exhaustive {
			t.Errorf("%s/%s: DP %v below exhaustive %v", row[0], row[1], dp, exhaustive)
		}
		if n := cell(t, row[2]); n < 700 {
			t.Errorf("%s/%s: only %v partitions enumerated", row[0], row[1], n)
		}
	}
}

func TestAblation2GuardDominates(t *testing.T) {
	res := runExperiment(t, "ablation2")
	for _, table := range res.Tables {
		var plain, guarded []float64
		for _, row := range table.Rows {
			var vals []float64
			for _, c := range row[1:] {
				vals = append(vals, cell(t, c))
			}
			if strings.HasPrefix(row[0], "class-aware") {
				guarded = vals
			} else {
				plain = vals
			}
		}
		for b := range guarded {
			if guarded[b] < plain[b] {
				t.Errorf("%s: guard loses at column %d (%v < %v)",
					table.Title, b, guarded[b], plain[b])
			}
		}
		// The §4.3.1 point: two guarded bundles already capture ~all.
		if guarded[0] < 0.95 {
			t.Errorf("%s: guarded capture at b=2 = %v", table.Title, guarded[0])
		}
		if plain[0] > 0.5 {
			t.Errorf("%s: unguarded capture at b=2 = %v, expected poor", table.Title, plain[0])
		}
	}
}

func TestAblation3DoublesTraffic(t *testing.T) {
	res := runExperiment(t, "ablation3")
	rows := map[string][]string{}
	for _, row := range res.Tables[0].Rows {
		rows[row[0]] = row
	}
	traffic := rows["measured traffic (Gbps)"]
	with, without := cell(t, traffic[1]), cell(t, traffic[2])
	// EU ISP records are exported at entry and exit PoP (2 exporters for
	// inter-PoP flows), so disabling dedup roughly doubles volume.
	if ratio := without / with; ratio < 1.8 || ratio > 2.05 {
		t.Errorf("dedup-off inflation = %v, want ≈2", ratio)
	}
	profit := rows["blended-equivalent profit ($)"]
	if cell(t, profit[2]) <= cell(t, profit[1]) {
		t.Error("double-counting should inflate fitted profit")
	}
}

func TestAblation4GranularityTrend(t *testing.T) {
	res := runExperiment(t, "ablation4")
	rows := res.Tables[0].Rows
	coarsest := cell(t, rows[0][1])
	finest := cell(t, rows[len(rows)-1][1])
	if !(coarsest > finest) {
		t.Errorf("capture should decline with granularity: %v vs %v", coarsest, finest)
	}
	for _, row := range rows {
		if v := cell(t, row[1]); v < 0.8 || v > 1.0001 {
			t.Errorf("capture %v out of expected band at %s aggregates", v, row[0])
		}
	}
}

func TestExt1PercentileAboveAverage(t *testing.T) {
	res := runExperiment(t, "ext1")
	for _, row := range res.Tables[0].Rows {
		avg, p95 := cell(t, row[2]), cell(t, row[3])
		if !(p95 >= avg) {
			t.Errorf("tier %s: p95 %v below average %v", row[0], p95, avg)
		}
		// The evening burst (1.9× base) must NOT be billable at p95:
		// p95 stays below 1.5× the average.
		if p95 > 1.5*avg {
			t.Errorf("tier %s: p95 %v includes the burst (avg %v)", row[0], p95, avg)
		}
	}
}

func TestAblation5TightRanges(t *testing.T) {
	res := runExperiment(t, "ablation5")
	for _, table := range res.Tables {
		for _, row := range table.Rows {
			for col := 1; col <= 4; col++ {
				var mean, lo, hi float64
				if _, err := fmt.Sscanf(row[col], "%f [%f..%f]", &mean, &lo, &hi); err != nil {
					t.Fatalf("cell %q: %v", row[col], err)
				}
				if !(lo <= mean && mean <= hi) {
					t.Errorf("%s %s: mean %v outside [%v, %v]", table.Title, row[0], mean, lo, hi)
				}
				// Optimal columns must be stable across seeds.
				if col <= 2 && hi-lo > 0.15 {
					t.Errorf("%s %s col %d: optimal range %v..%v too wide", table.Title, row[0], col, lo, hi)
				}
			}
		}
	}
}

// TestOptimalCaptureHeadline is the paper's answer to "how many tiers?" as
// an assertion: over the three presets at ablation5's five seeds, under
// both models, optimal capture never falls as b grows from 1 to 6, and
// four tiers capture at least a pinned share of the attainable profit
// (the lowest of the 15 markets at the base seed 1 read 0.894 under CED
// and 0.981 under logit).
func TestOptimalCaptureHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("30 fitted markets")
	}
	floorAt4 := map[string]float64{"ced": 0.88, "logit": 0.97}
	for model, floor := range floorAt4 {
		dm, err := demandModel(model)
		if err != nil {
			t.Fatal(err)
		}
		names, seeds := traces.Names(), ablation5Seeds(1)
		grid, err := sweep(Options{Workers: 2}, len(names)*len(seeds), func(i int) (*core.Market, error) {
			return datasetMarket(Options{}, names[i/len(seeds)], seeds[i%len(seeds)], dm, cost.Linear{Theta: defaultTheta})
		}, []bundling.Strategy{bundling.Optimal{}}, allBundles)
		if err != nil {
			t.Fatal(err)
		}
		lowest := 1.0
		for i, g := range grid {
			name, seed, row := names[i/len(seeds)], seeds[i%len(seeds)], g.outs[0]
			for b := 1; b < len(row); b++ {
				if row[b].Capture < row[b-1].Capture-1e-12 {
					t.Errorf("%s %s seed %d: optimal capture falls from %v at b=%d to %v at b=%d",
						model, name, seed, row[b-1].Capture, b, row[b].Capture, b+1)
				}
			}
			if row[3].Capture < floor {
				t.Errorf("%s %s seed %d: optimal capture at b=4 is %v, below %v", model, name, seed, row[3].Capture, floor)
			}
			lowest = min(lowest, row[3].Capture)
		}
		t.Logf("%s: lowest optimal capture at b=4 over the presets and seeds: %.3f", model, lowest)
	}
}
