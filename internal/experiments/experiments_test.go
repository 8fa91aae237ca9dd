package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"tieredpricing/internal/report"
	"tieredpricing/internal/traces"
)

// cell parses a table cell as a float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func runExperiment(t *testing.T, id string) *Result {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Options{Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID %q, want %q", res.ID, id)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "table1",
		"ablation1", "ablation2", "ablation3", "ablation4", "ablation5",
		"ext1", "ext2", "ext3", "ext4", "ext5", "ext6",
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	all := All()
	if len(all) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(all), len(want))
	}
	// Ordering: prefix groups alphabetical, numeric within a group.
	if all[0].ID != "ablation1" || all[len(all)-1].ID != "table1" {
		t.Errorf("ordering wrong: first %s last %s", all[0].ID, all[len(all)-1].ID)
	}
	if _, err := Get("nonesuch"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestAllExperimentsRunAndRender(t *testing.T) {
	for _, e := range All() {
		res, err := e.Run(Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var buf bytes.Buffer
		if err := res.WriteASCII(&buf); err != nil {
			t.Fatalf("%s render: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s rendered empty", e.ID)
		}
		for ti, table := range res.Tables {
			if len(table.Rows) == 0 {
				t.Errorf("%s table %d has no rows", e.ID, ti)
			}
		}
	}
}

func TestFig1MatchesPaperNumbers(t *testing.T) {
	res := runExperiment(t, "fig1")
	rows := map[string][]string{}
	for _, row := range res.Tables[0].Rows {
		rows[row[0]] = row
	}
	// Prices are pinned by construction.
	if v := cell(t, rows["tier price P1"][2]); v < 2.69 || v > 2.71 {
		t.Errorf("P1 = %v, want 2.70", v)
	}
	if v := cell(t, rows["tier price P2"][2]); v < 0.99 || v > 1.01 {
		t.Errorf("P2 = %v, want 1.00", v)
	}
	// Blended profit is fit to the paper's $2.08.
	if v := cell(t, rows["blended profit"][2]); v < 2.07 || v > 2.09 {
		t.Errorf("blended profit = %v", v)
	}
	// Direction of the welfare result: tiered beats blended on both.
	if !(cell(t, rows["tiered profit"][2]) > cell(t, rows["blended profit"][2])) {
		t.Error("tiered profit should exceed blended")
	}
	if !(cell(t, rows["tiered surplus"][2]) > cell(t, rows["blended surplus"][2])) {
		t.Error("tiered surplus should exceed blended")
	}
	// Magnitudes near the paper's.
	if v := cell(t, rows["tiered profit"][2]); v < 2.1 || v > 2.5 {
		t.Errorf("tiered profit = %v, want ≈2.25", v)
	}
}

func TestFig2HasAllRegions(t *testing.T) {
	res := runExperiment(t, "fig2")
	seen := map[string]bool{}
	for _, row := range res.Tables[0].Rows {
		seen[row[1]] = true
	}
	for _, want := range []string{"stay", "market-failure", "efficient-bypass"} {
		if !seen[want] {
			t.Errorf("region %s missing", want)
		}
	}
}

func TestFig6RecoversCurves(t *testing.T) {
	res := runExperiment(t, "fig6")
	for _, row := range res.Tables[0].Rows {
		aPaper, aFit := cell(t, row[1]), cell(t, row[4])
		if rel := (aFit - aPaper) / aPaper; rel < -0.15 || rel > 0.15 {
			t.Errorf("%s: fitted a=%v vs paper %v", row[0], aFit, aPaper)
		}
		if r2 := cell(t, row[6]); r2 < 0.9 {
			t.Errorf("%s: R² = %v", row[0], r2)
		}
	}
}

func TestFig8PaperShape(t *testing.T) {
	res := runExperiment(t, "fig8")
	if len(res.Tables) != 3 {
		t.Fatalf("want 3 network tables, got %d", len(res.Tables))
	}
	for _, table := range res.Tables {
		byStrategy := map[string][]float64{}
		for _, row := range table.Rows {
			var vals []float64
			for _, c := range row[1:] {
				vals = append(vals, cell(t, c))
			}
			byStrategy[row[0]] = vals
		}
		opt := byStrategy["optimal"]
		// Headline: 3-4 optimal bundles capture ≥ 85%.
		if opt[3] < 0.85 {
			t.Errorf("%s: optimal capture at b=4 = %v", table.Title, opt[3])
		}
		// Optimal dominates every other strategy at every b.
		for name, vals := range byStrategy {
			for b := range vals {
				if vals[b] > opt[b]+1e-6 {
					t.Errorf("%s: %s beats optimal at b=%d (%v > %v)",
						table.Title, name, b+1, vals[b], opt[b])
				}
			}
		}
		// Profit-weighted is competitive by 4 bundles. Internet2's extreme
		// demand CV (elephant flows burn token-bucket bundles) needs more
		// bundles, matching the paper's "networks with high CV of demand
		// require more bundles" observation.
		pw := byStrategy["profit-weighted"]
		if strings.Contains(table.Title, "internet2") {
			if pw[3] < 0.3 || pw[5] < 0.45 {
				t.Errorf("%s: profit-weighted b=4/b=6 = %v/%v", table.Title, pw[3], pw[5])
			}
		} else if pw[3] < 0.6 {
			t.Errorf("%s: profit-weighted at b=4 = %v", table.Title, pw[3])
		}
	}
}

func TestFig9LogitSaturatesFaster(t *testing.T) {
	ced := runExperiment(t, "fig8")
	logit := runExperiment(t, "fig9")
	// Compare the optimal rows at b=2 per network: logit ≥ CED.
	for i := range logit.Tables {
		var cedOpt, logitOpt float64
		for _, row := range ced.Tables[i].Rows {
			if row[0] == "optimal" {
				cedOpt = cell(t, row[2])
			}
		}
		for _, row := range logit.Tables[i].Rows {
			if row[0] == "optimal" {
				logitOpt = cell(t, row[2])
			}
		}
		if logitOpt < cedOpt-0.05 {
			t.Errorf("table %d: logit optimal at b=2 (%v) below CED (%v)", i, logitOpt, cedOpt)
		}
	}
	// Figure 9's legend has no demand-weighted row.
	for _, table := range logit.Tables {
		for _, row := range table.Rows {
			if row[0] == "demand-weighted" {
				t.Error("fig9 should not include demand-weighted")
			}
		}
	}
}

func TestFig10ThetaOrdering(t *testing.T) {
	res := runExperiment(t, "fig10")
	for _, table := range res.Tables {
		// Higher base cost θ ⇒ lower plateau (value at b=6).
		last := 2.0
		for _, row := range table.Rows {
			v := cell(t, row[6])
			if v > last+0.05 {
				t.Errorf("%s: θ=%s plateau %v not below previous %v", table.Title, row[0], v, last)
			}
			last = v
		}
	}
}

func TestFig12ThetaOrderingReversed(t *testing.T) {
	res := runExperiment(t, "fig12")
	for _, table := range res.Tables {
		// Regional model: higher θ ⇒ more inter-region cost spread ⇒
		// higher attainable profit, so plateaus must be non-decreasing in
		// θ (the reverse of fig10/fig11).
		prev := -1.0
		for _, row := range table.Rows {
			v := cell(t, row[6])
			if v < prev-0.05 {
				t.Errorf("%s: θ=%s plateau %v fell below previous %v",
					table.Title, row[0], v, prev)
			}
			prev = v
		}
	}
}

func TestFig13TwoBundlesSuffice(t *testing.T) {
	res := runExperiment(t, "fig13")
	for _, table := range res.Tables {
		for _, row := range table.Rows {
			b2, b6 := cell(t, row[2]), cell(t, row[6])
			if b6 > 0 && b2 < 0.8*b6 {
				t.Errorf("%s θ=%s: b=2 (%v) captures less than 80%% of b=6 (%v)",
					table.Title, row[0], b2, b6)
			}
		}
	}
}

func TestFig14RobustAcrossAlpha(t *testing.T) {
	res := runExperiment(t, "fig14")
	for _, table := range res.Tables {
		for _, row := range table.Rows {
			// Minimum capture must still be substantial by b=4 (the
			// paper's robustness claim); internet2 needs more bundles.
			floor := 0.4
			if row[0] == "internet2" {
				floor = 0.25
			}
			if v := cell(t, row[4]); v < floor {
				t.Errorf("%s %s: min capture at b=4 = %v", table.Title, row[0], v)
			}
		}
	}
}

// TestSensitivityExtremaBracketDefaults checks the figures' folds
// against each other. Every sensitivity grid holds the default
// parameter, so its extremum brackets the default figure's cell: fig14's
// minimum over α (1.1 is in the grid) and fig15's over P0 (20) are at
// most fig8/fig9's profit-weighted capture, fig16's maximum over s0 (0.2)
// is at least fig9's, and ablation5's range over seeds holds the base
// seed's optimal capture. A wrong grid index or min/max direction breaks
// one of these.
func TestSensitivityExtremaBracketDefaults(t *testing.T) {
	for _, name := range traces.Names() {
		ds, err := traces.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ds.P0 != 20 {
			t.Fatalf("%s: P0 = %v, not fig15's grid point 20", name, ds.P0)
		}
	}
	results, err := RunAll(Options{Seed: 1, Workers: 2}, "fig8", "fig9", "fig14", "fig15", "fig16", "ablation5")
	if err != nil {
		t.Fatal(err)
	}
	fig8, fig9, fig14, fig15, fig16, ablation5 := results[0], results[1], results[2], results[3], results[4], results[5]
	// defaults[model][dataset][strategy] is the default figure's row.
	defaults := map[string]map[string]map[string][]float64{}
	for model, res := range map[string]*Result{"ced": fig8, "logit": fig9} {
		defaults[model] = map[string]map[string][]float64{}
		for i, name := range traces.Names() {
			rows := map[string][]float64{}
			for _, row := range res.Tables[i].Rows {
				for _, c := range row[1:] {
					rows[row[0]] = append(rows[row[0]], cell(t, c))
				}
			}
			defaults[model][name] = rows
		}
	}
	// bracket checks every cell of table against the default
	// profit-weighted capture: below it for a minimum, above for a maximum.
	bracket := func(id, model string, table *report.Table, isMax bool) {
		for _, row := range table.Rows {
			pw := defaults[model][row[0]]["profit-weighted"]
			for b, c := range row[1:] {
				if v := cell(t, c); (isMax && v < pw[b]) || (!isMax && v > pw[b]) {
					t.Errorf("%s %s %s b=%d: extremum %v on the wrong side of the default %v",
						id, model, row[0], b+1, v, pw[b])
				}
			}
		}
	}
	for i, model := range demandModels {
		bracket("fig14", model, fig14.Tables[i], false)
		bracket("fig15", model, fig15.Tables[i], false)
	}
	bracket("fig16", "logit", fig16.Tables[0], true)
	for i, model := range demandModels {
		for _, row := range ablation5.Tables[i].Rows {
			opt := defaults[model][row[0]]["optimal"]
			for col, b := range []int{2, 4} {
				var mean, lo, hi float64
				if _, err := fmt.Sscanf(row[1+col], "%f [%f..%f]", &mean, &lo, &hi); err != nil {
					t.Fatalf("ablation5 cell %q: %v", row[1+col], err)
				}
				if v := opt[b-1]; v < lo || v > hi {
					t.Errorf("ablation5 %s %s optimal b=%d: [%v..%v] misses the base seed's %v",
						model, row[0], b, lo, hi, v)
				}
			}
		}
	}
}

func TestFig17BillsAgree(t *testing.T) {
	res := runExperiment(t, "fig17")
	table := res.Tables[0]
	var flowTotal, linkTotal float64
	for _, row := range table.Rows {
		flowTotal += cell(t, row[4])
		linkTotal += cell(t, row[5])
	}
	if linkTotal <= 0 {
		t.Fatal("link-based bill is zero")
	}
	rel := (flowTotal - linkTotal) / linkTotal
	if rel < -0.01 || rel > 0.01 {
		t.Errorf("bills disagree by %v%%: flow %v vs link %v", rel*100, flowTotal, linkTotal)
	}
	// Overhead table: link-based grows with tiers.
	t2 := res.Tables[1]
	first := cell(t, t2.Rows[0][1])
	last := cell(t, t2.Rows[len(t2.Rows)-1][1])
	if !(last > first) {
		t.Error("link-based overhead should grow with tiers")
	}
}

func TestTable1AllNetworks(t *testing.T) {
	res := runExperiment(t, "table1")
	table := res.Tables[0]
	if len(table.Rows) != 3 {
		t.Fatalf("want 3 networks, got %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		// Aggregate traffic must match the paper to within rounding.
		paperGbps, measured := cell(t, row[6]), cell(t, row[7])
		if rel := (measured - paperGbps) / paperGbps; rel < -0.05 || rel > 0.05 {
			t.Errorf("%s: aggregate %v vs paper %v", row[0], measured, paperGbps)
		}
		// The pipeline must have seen duplicates (multi-router export).
		if dups := cell(t, row[10]); dups <= 0 {
			t.Errorf("%s: no duplicate records in pipeline", row[0])
		}
	}
	// Demand-CV ordering across networks must match the paper:
	// EU ISP < CDN < Internet2.
	cvByName := map[string]float64{}
	for _, row := range table.Rows {
		cvByName[row[0]] = cell(t, row[9])
	}
	if !(cvByName["euisp"] < cvByName["cdn"] && cvByName["cdn"] < cvByName["internet2"]) {
		t.Errorf("demand CV ordering wrong: %v", cvByName)
	}
}

func TestResultWriteASCIIIncludesID(t *testing.T) {
	res := runExperiment(t, "fig3")
	var buf bytes.Buffer
	if err := res.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig3") {
		t.Error("rendered output missing experiment id")
	}
}
