package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// stamp records the box and the build a summary was measured on, so two
// summaries can be told apart from "there were no cores to scale onto".
type stamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Kernel     string `json:"kernel"`
	RunAt      string `json:"run_at"`
}

func newStamp(root string) stamp {
	s := stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown", // a checkout without .git has no revision to give
		Kernel:     "unknown",
		RunAt:      time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		s.GitRev = strings.TrimSpace(string(out))
	}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(out))
	}
	return s
}

// metricSummary is one metric of one workload over a summary's runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"` // end-to-end metrics only
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// spread is the distance between the quartiles as a share of the median.
func (m metricSummary) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Median
}

// summaryFile is what --out writes and --compare reads.
type summaryFile struct {
	Env stamp `json:"env"`
	// Claim is always null: a summary states what was measured, and
	// claims no gain over anything.
	Claim     *string                             `json:"claim"`
	Seconds   int                                 `json:"seconds"`
	Traced    bool                                `json:"traced"`
	Failed    int                                 `json:"ops_failed"`
	Attempted int                                 `json:"ops_attempted"`
	Workloads map[string]map[string]metricSummary `json:"workloads"`
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives, which is what the driver computes spreads from.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	if len(d) < 2 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (len(d) + 1) / n
		j = min(max(j, 1), len(d)-1)
		delta := float64(i*(len(d)+1) - j*n)
		return (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// summary runs each workload runs times on consecutive seeds and prints
// every metric by name with its unit, sample count and quartiles under
// the stamp of the box; out, if set, receives the same as JSON.
func (b *bench) summary(ctx context.Context, workload string, seed int64, seconds int, traced bool, runs int, out string) int {
	sum := summaryFile{Env: newStamp(b.root), Seconds: seconds, Traced: traced,
		Workloads: map[string]map[string]metricSummary{}}
	defs := b.spec.EndToEnd
	if traced {
		defs = b.spec.PerLayer
	}
	code := 0
	for _, w := range b.spec.Workloads {
		if workload != "" && workload != w.Name {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			res, err := b.run(ctx, w.Name, seed+int64(i), seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			sum.Attempted += res.Attempted
			sum.Failed += res.Failed
			for _, p := range res.Problems {
				fmt.Printf("FAILED CHECK (%s, seed %d): %s\n", w.Name, res.Seed, p)
				code = 1
			}
			for _, m := range defs {
				values[m.Name] = append(values[m.Name], res.Values[m.Name])
			}
		}
		sum.Workloads[w.Name] = map[string]metricSummary{}
		fmt.Printf("\n%s — %d runs of %d s, seeds %d..%d\n", w.Name, runs, seconds, seed, seed+int64(runs)-1)
		fmt.Printf("  %-42s %-8s %3s %12s %12s %12s %7s\n", "metric", "unit", "n", "q1", "median", "q3", "spread")
		for _, m := range defs {
			ms := metricSummary{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Values: values[m.Name]}
			ms.Q1, ms.Median, ms.Q3 = quartiles(ms.Values)
			sum.Workloads[w.Name][m.Name] = ms
			fmt.Printf("  %-42s %-8s %3d %12.6g %12.6g %12.6g %6.1f%%\n",
				m.Name, m.Unit, len(ms.Values), ms.Q1, ms.Median, ms.Q3, 100*ms.spread())
		}
	}
	e := sum.Env
	fmt.Printf("\nops_attempted %d, ops_failed %d\nenv: NumCPU %d, GOMAXPROCS %d, %s, git %s, kernel %s, run at %s\n",
		sum.Attempted, sum.Failed, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GitRev, e.Kernel, e.RunAt)
	if e.NumCPU <= 2 {
		fmt.Println("env: with two processors or fewer, parallel.speedup and eval_s say nothing about scaling past them")
	}
	if out != "" {
		data, err := json.MarshalIndent(sum, "", " ")
		if err == nil {
			if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
				err = os.WriteFile(out, append(data, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// compareFiles applies each end-to-end metric's bound to two summaries:
// b regressed on a metric when its median is worse than a's by more than
// the bound. Where either side's own spread exceeds the bound the pair
// cannot resolve a difference of that size, and the metric is reported
// as unresolved rather than unchanged. Summaries from boxes with
// different processor counts are not compared at all.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: --compare takes two summary files")
		return 2
	}
	var sums [2]summaryFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sums[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := sums[0], sums[1]
	if a.Env.NumCPU != b.Env.NumCPU {
		fmt.Fprintf(os.Stderr, "bench: refusing to compare a %d-processor summary with a %d-processor one\n",
			a.Env.NumCPU, b.Env.NumCPU)
		return 2
	}
	regressed, unresolved := 0, 0
	var workloads []string
	for w := range a.Workloads {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		var names []string
		for name := range a.Workloads[w] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma, mb := a.Workloads[w][name], b.Workloads[w][name]
			if ma.Bound == 0 || len(mb.Values) == 0 {
				continue
			}
			worse := (mb.Median - ma.Median) / ma.Median
			if ma.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case ma.spread() > ma.Bound || mb.spread() > ma.Bound:
				verdict = "UNRESOLVED (spread exceeds the bound)"
				unresolved++
			case worse > ma.Bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Printf("%-13s %-24s %12.6g -> %12.6g %-8s %+6.1f%% worse, bound %2.0f%%, spreads %4.1f%% %4.1f%%  %s\n",
				w, name, ma.Median, mb.Median, ma.Unit, 100*worse, 100*ma.Bound, 100*ma.spread(), 100*mb.spread(), verdict)
		}
	}
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
