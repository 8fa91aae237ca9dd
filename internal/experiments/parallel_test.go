package experiments

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// renderAll runs every registered experiment through RunAll at the given
// worker count and renders the full ASCII report.
func renderAll(t *testing.T, seed int64, workers int, ids ...string) string {
	t.Helper()
	results, err := RunAll(Options{Seed: seed, Workers: workers}, ids...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, res := range results {
		if err := res.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestRunAllParallelByteIdentical is the engine's determinism guarantee:
// for seeds 1–3, the full-evaluation output fanned out across
// Workers ∈ {4, NumCPU} is byte-identical to the serial (Workers = 1)
// output. Every task derives its seed and parameters from its index and
// results merge in submission order, so scheduling cannot leak into the
// report.
func TestRunAllParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation sweep ×3 seeds")
	}
	counts := []int{4, runtime.NumCPU()}
	for seed := int64(1); seed <= 3; seed++ {
		serial := renderAll(t, seed, 1)
		if len(serial) == 0 {
			t.Fatalf("seed %d: empty serial output", seed)
		}
		for _, w := range counts {
			if got := renderAll(t, seed, w); got != serial {
				t.Errorf("seed %d: output with Workers=%d differs from serial (%d vs %d bytes)",
					seed, w, len(got), len(serial))
			}
		}
	}
}

// TestRunAllSubsetOrder: results come back in submission order, not
// completion order, including for an explicit id list.
func TestRunAllSubsetOrder(t *testing.T) {
	ids := []string{"fig8", "ablation4", "fig10", "fig13"}
	results, err := RunAll(Options{Seed: 1, Workers: 4}, ids...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, res := range results {
		if res.ID != ids[i] {
			t.Errorf("results[%d].ID = %s, want %s", i, res.ID, ids[i])
		}
	}
}

// TestRunAllAllocBudget is a standing budget on the whole evaluation's
// garbage: after one warm-up, a serial seed-1 RunAll allocates at most
// 22 MiB (TotalAlloc). It measured 38.2 MB before the NetFlow reader
// reused its buffers, the token buckets shared one sorted order and the
// class-aware curve split its classes once; 18.4 MB after.
func TestRunAllAllocBudget(t *testing.T) {
	run := func() {
		if _, err := RunAll(Options{Seed: 1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	const budget = 22 << 20
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("serial run all: %d objects, %d bytes", m1.Mallocs-m0.Mallocs, got)
	if got > budget {
		t.Errorf("a serial run all allocates %d bytes, budget %d", got, budget)
	}
}

func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll(Options{Seed: 1}, "fig8", "nonesuch"); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

// TestRegistryConcurrentAccess hammers Get/All from many goroutines so
// `go test -race` proves the registry is safe for concurrent lookups
// while experiments fan out.
func TestRegistryConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g%2 == 0 {
					if _, err := Get("fig8"); err != nil {
						t.Error(err)
						return
					}
					if _, err := Get("nonesuch"); err == nil {
						t.Error("unknown id should error")
						return
					}
				} else {
					if all := All(); len(all) == 0 {
						t.Error("All returned empty registry")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOptionsWorkerCount pins the zero-value contract: no Workers means
// serial, explicit counts pass through.
func TestOptionsWorkerCount(t *testing.T) {
	for _, c := range []struct{ workers, want int }{{0, 1}, {-2, 1}, {1, 1}, {7, 7}} {
		if got := (Options{Workers: c.workers}).workerCount(); got != c.want {
			t.Errorf("Options{Workers: %d}.workerCount() = %d, want %d", c.workers, got, c.want)
		}
	}
}
