// Command bench is the repository's benchmark: end-to-end numbers from
// the real tierd and tiersim binaries (bench/e2e) and per-layer numbers
// from a traced in-process run (bench/layers), over inputs generated from
// a seed (bench/gen). BENCHMARK.json at the repository root names every
// metric, its unit, direction and regression bound; README.md explains
// them.
//
//	go run -C bench . --workload shared_keys --seed 1 --seconds 55 --trace 0
//	go run -C bench . --workload fresh_keys --trace 1     # per-layer metrics + out/trace.json
//	go run -C bench . --runs 10 --out out/a.json          # every workload, quartiles, env stamp
//	go run -C bench . --compare out/a.json out/b.json     # apply each metric's bound
//	go run -C bench . --smoke                             # a short run of everything
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"tieredpricing/bench/e2e"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the command reads: it is the one
// list of workloads and metrics.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// findRoot walks up from the working directory to the checkout: the
// directory whose go.mod declares module tieredpricing.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module tieredpricing\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a tieredpricing checkout (no go.mod declaring module tieredpricing above the working directory)")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run (a name from BENCHMARK.json); empty = every workload")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 0, "how long one run measures (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace.json")
	runs := flag.Int("runs", 1, "runs per workload, on consecutive seeds, for the summary's quartiles")
	out := flag.String("out", "", "write the summary (env stamp, every value, quartiles) to this file")
	compare := flag.Bool("compare", false, "compare two summaries given as arguments, applying each metric's bound")
	smoke := flag.Bool("smoke", false, "one short traced run, no bounds: is the benchmark itself intact")
	flag.Parse()

	// Children die with the benchmark, whatever ends it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := func() int {
		defer stop()
		defer e2e.KillAll()
		if *compare {
			return compareFiles(flag.Args())
		}
		root, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sp, err := loadSpec(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		b := &bench{root: root, spec: sp}
		if *seconds == 0 {
			*seconds = sp.RunSeconds
		}
		switch {
		case *smoke:
			return b.smoke(ctx)
		case *workload != "" && *runs == 1 && *out == "":
			return b.driverRun(ctx, *workload, *seed, *seconds, *trace == 1)
		default:
			return b.summary(ctx, *workload, *seed, *seconds, *trace == 1, *runs, *out)
		}
	}()
	os.Exit(code)
}
