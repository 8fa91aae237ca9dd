// Package experiments contains one runner per table and figure of the
// paper's evaluation, each regenerating the corresponding rows/series
// from the synthetic substrates. The cmd/tiersim binary and the
// repository-level benchmarks both drive this registry.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"tieredpricing/internal/parallel"
	"tieredpricing/internal/report"
	"tieredpricing/internal/traces"
)

// Options parameterize a run.
type Options struct {
	// Seed drives all randomness; a fixed seed reproduces a run exactly.
	Seed int64
	// Workers bounds the goroutines that fan out independent work: whole
	// experiments in RunAll, and inside one the markets of its grid
	// (sweep) or table1's datasets. Zero or one runs serially. Any value
	// produces byte-identical output: tasks derive their seeds and
	// parameters from their index, and results merge in submission order.
	Workers int
	// shared is RunAll's source of datasets and their NetFlow exports;
	// nil generates directly.
	shared *sync.Map
}

// workerCount resolves the Workers option; the zero value stays serial
// so existing callers and the per-artifact benchmarks keep their exact
// serial behavior (cmd/tiersim passes runtime.NumCPU() explicitly).
func (o Options) workerCount() int {
	if o.Workers <= 0 {
		return 1
	}
	return o.Workers
}

// datasetKey names one entry of a RunAll's dataset source.
type datasetKey struct {
	name string
	seed int64
}

// exportKey names the NetFlow export of a datasetKey's dataset.
type exportKey datasetKey

// dataset returns the named preset at seed, shared.
func (o Options) dataset(name string, seed int64) (*traces.Dataset, error) {
	return share(o, datasetKey{name, seed}, func() (*traces.Dataset, error) { return traces.ByName(name, seed) })
}

// export returns the named preset at seed and its NetFlow export, emitted
// at seed + 1 as tracegen emits it; both shared.
func (o Options) export(name string, seed int64) (*traces.Dataset, map[string][]byte, error) {
	ds, err := o.dataset(name, seed)
	if err != nil {
		return nil, nil, err
	}
	streams, err := share(o, exportKey{name, seed}, func() (map[string][]byte, error) {
		return ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
	})
	return ds, streams, err
}

// share returns generate's result. The experiments of one RunAll share
// one generation per key — concurrent askers wait on the same once — so
// the result is read-only; a lone Run with zero Options generates afresh.
func share[T any](o Options, key any, generate func() (T, error)) (T, error) {
	if o.shared != nil {
		once, _ := o.shared.LoadOrStore(key, sync.OnceValues(generate))
		generate = once.(func() (T, error))
	}
	return generate()
}

// Result is an experiment's output: one or more tables mirroring the
// paper artifact.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
}

// WriteASCII renders every table.
func (r *Result) WriteASCII(w io.Writer) error {
	fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		if err := t.WriteASCII(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Runner produces a Result.
type Runner func(Options) (*Result, error)

// Experiment is a registered paper artifact.
type Experiment struct {
	// ID is the registry key ("fig8", "table1", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Paper cites what the artifact shows in the paper.
	Paper string
	// Run regenerates it.
	Run Runner
}

// The registry is guarded for concurrent Get/All against (test-only)
// late registration; after init it is effectively read-only and the
// RWMutex costs nothing contended.
var (
	registryMu sync.RWMutex
	registry   = map[string]Experiment{}
)

// register adds an experiment at init time.
func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get looks an experiment up by ID. It is safe for concurrent use.
func Get(id string) (Experiment, error) {
	registryMu.RLock()
	e, ok := registry[id]
	registryMu.RUnlock()
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (run `tiersim list`)", id)
	}
	return e, nil
}

// All returns every experiment sorted by ID (figures first, then tables,
// in numeric order). It is safe for concurrent use.
func All() []Experiment {
	registryMu.RLock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	registryMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

// RunAll resolves ids — every registered experiment when ids is empty —
// and runs them, fanning the independent experiments across
// opts.Workers goroutines. Results come back in submission order
// regardless of completion order, so output rendered from them is
// byte-identical to running each experiment serially. The experiments of
// one call share each preset dataset and NetFlow export they ask for
// (Options.dataset, Options.export).
func RunAll(opts Options, ids ...string) ([]*Result, error) {
	var exps []Experiment
	if len(ids) == 0 {
		exps = All()
	} else {
		exps = make([]Experiment, len(ids))
		for i, id := range ids {
			e, err := Get(id)
			if err != nil {
				return nil, err
			}
			exps[i] = e
		}
	}
	return runAll(opts, exps)
}

// runAll is RunAll past id resolution (tests hand it unregistered
// experiments): it opens the call's dataset source and fans out.
func runAll(opts Options, exps []Experiment) ([]*Result, error) {
	opts.shared = new(sync.Map)
	return parallel.Map(context.Background(), len(exps), opts.workerCount(),
		func(_ context.Context, i int) (*Result, error) {
			res, err := exps[i].Run(opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", exps[i].ID, err)
			}
			return res, nil
		})
}

// lessID orders fig1 < fig2 < ... < fig17 < table1.
func lessID(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	return na < nb
}

func splitID(id string) (string, int) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	var n int
	fmt.Sscanf(id[i:], "%d", &n)
	return id[:i], n
}
