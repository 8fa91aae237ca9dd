package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func checkout(t *testing.T) *bench {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{root: root, spec: sp}
}

// TestSmoke drives every stage, check and layer once, briefly: a refactor
// that breaks the benchmark fails here, not in the next measured run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tierd and tiersim")
	}
	if code := checkout(t).smoke(context.Background()); code != 0 {
		t.Fatalf("bench --smoke exited %d", code)
	}
}

// TestSpecWithinContract holds BENCHMARK.json to the limits the driver
// refuses a file for.
func TestSpecWithinContract(t *testing.T) {
	sp := checkout(t).spec
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for i, list := range [][]metricDef{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			use(m.Name)
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
			}
			if i == 0 && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
			}
			hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && i == 0)
		}
	}
	if !hasSetup {
		t.Error("no end-to-end setup_s in s, lower is better")
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpus int, values ...float64) string {
		ms := metricSummary{Unit: "us", Better: "lower", Bound: 0.10, Values: values}
		ms.Q1, ms.Median, ms.Q3 = quartiles(values)
		sum := summaryFile{Env: stamp{NumCPU: cpus},
			Workloads: map[string]map[string]metricSummary{"quote_hot": {"quote_p50_us": ms}}}
		data, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("steady.json", 2, 100, 101, 102, 103, 104)
	slower := write("slower.json", 2, 120, 121, 122, 123, 124)
	noisy := write("noisy.json", 2, 100, 120, 140, 160, 180)
	other := write("other.json", 8, 100, 101, 102, 103, 104)
	for _, c := range []struct {
		a, b string
		want int
	}{
		{steady, steady, 0},
		{steady, slower, 1}, // 20 % worse against a 10 % bound
		{steady, noisy, 0},  // unresolved is reported, not failed
		{steady, other, 2},  // different processor counts are refused
	} {
		if got := compareFiles([]string{c.a, c.b}); got != c.want {
			t.Errorf("compare %s %s exited %d, want %d", filepath.Base(c.a), filepath.Base(c.b), got, c.want)
		}
	}
}
