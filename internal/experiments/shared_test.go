package experiments

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"tieredpricing/internal/core"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/traces"
)

// TestAblation1RowFailsLoudly: a market the model cannot price fails the
// row. The parent's enumeration callback turned the pricing error into
// "stop early" and printed the partial maximum as the exhaustive profit.
func TestAblation1RowFailsLoudly(t *testing.T) {
	flows := []econ.Flow{
		{ID: "a", Demand: 3, Valuation: 25, Cost: 4},
		{ID: "b", Demand: 5, Valuation: 31, Cost: 9},
		{ID: "c", Demand: 2, Valuation: 22, Cost: 6},
	}
	if _, err := ablation1Row(&core.Market{Flows: flows, Demand: econ.CED{Alpha: 1.1}}, 2); err != nil {
		t.Fatalf("priceable market: %v", err)
	}
	bad := append([]econ.Flow(nil), flows...)
	bad[1].Valuation = -1
	for name, m := range map[string]*core.Market{
		"non-positive valuation": {Flows: bad, Demand: econ.CED{Alpha: 1.1}},
		"alpha = 1":              {Flows: flows, Demand: econ.CED{Alpha: 1}},
	} {
		if row, err := ablation1Row(m, 2); err == nil {
			t.Errorf("%s: printed row %v instead of failing", name, row)
		}
	}
}

// probe is an unregistered experiment that records the Options it ran
// under, which is how a test reaches a RunAll's dataset source.
func probe(got *Options) Experiment {
	return Experiment{ID: "probe", Run: func(opts Options) (*Result, error) {
		*got = opts
		_, err := opts.dataset("euisp", opts.Seed)
		return &Result{ID: "probe"}, err
	}}
}

// TestSharedDatasetsStayPristine (run it under -race): every experiment
// at once over one source, after which each dataset and each NetFlow
// export the source handed out still equals a fresh generation — sharing
// is safe because nobody writes.
func TestSharedDatasetsStayPristine(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	var opts Options
	if _, err := runAll(Options{Seed: 2, Workers: 4}, append(All(), probe(&opts))); err != nil {
		t.Fatal(err)
	}
	datasets, exports := 0, 0
	opts.shared.Range(func(k, v any) bool {
		switch key := k.(type) {
		case datasetKey:
			got, gotErr := v.(func() (*traces.Dataset, error))()
			fresh, err := traces.ByName(key.name, key.seed)
			if err != nil || gotErr != nil {
				t.Errorf("%v: shared %v, fresh %v", key, gotErr, err)
			} else if !reflect.DeepEqual(got, fresh) {
				t.Errorf("%v: the shared dataset no longer equals a fresh generation — an experiment wrote to it", key)
			}
			datasets++
		case exportKey:
			got, gotErr := v.(func() (map[string][]byte, error))()
			ds, err := traces.ByName(key.name, key.seed)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := ds.EmitNetFlow(traces.EmitConfig{Seed: key.seed + 1})
			if err != nil || gotErr != nil {
				t.Errorf("%v: shared %v, fresh %v", key, gotErr, err)
			} else if !reflect.DeepEqual(got, fresh) {
				t.Errorf("%v: the shared NetFlow export no longer equals a fresh emission — an experiment wrote to it", key)
			}
			exports++
		default:
			t.Errorf("unexpected source key %#v", k)
		}
		return true
	})
	if datasets < 3 || exports < 3 {
		t.Errorf("source handed out %d datasets and %d exports, want at least the three presets of each", datasets, exports)
	}
}

// TestDatasetSourceIsPerRunAll: within one RunAll concurrent askers share
// one generation (same pointer) of a dataset and of its NetFlow export;
// the next RunAll generates and emits again; a lone Run with zero Options
// never shares. Generations are counted as distinct pointers — the
// datasets and exports stay reachable, so none can be reused.
func TestDatasetSourceIsPerRunAll(t *testing.T) {
	generations := map[*traces.Dataset]bool{}
	emissions := map[unsafe.Pointer]bool{}
	for call := 1; call <= 2; call++ {
		var opts Options
		if _, err := runAll(Options{Seed: 1, Workers: 2}, []Experiment{probe(&opts)}); err != nil {
			t.Fatal(err)
		}
		got := make([]*traces.Dataset, 8)
		emitted := make([]map[string][]byte, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if g%2 == 0 {
					got[g], err = opts.dataset("euisp", 1)
				} else {
					got[g], emitted[g], err = opts.export("euisp", 1)
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for g, ds := range got {
			generations[ds] = true
			if emitted[g] != nil {
				emissions[reflect.ValueOf(emitted[g]).UnsafePointer()] = true
			}
		}
		if len(generations) != call || len(emissions) != call {
			t.Fatalf("after RunAll #%d: %d generations and %d emissions of (euisp, 1), want %d of each",
				call, len(generations), len(emissions), call)
		}
	}
	a, errA := Options{Seed: 1}.dataset("euisp", 1)
	b, errB := Options{Seed: 1}.dataset("euisp", 1)
	if errA != nil || errB != nil || a == b {
		t.Fatalf("zero Options shared a dataset (%p, %p; errors %v, %v)", a, b, errA, errB)
	}
}
