package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestRunSelectedExperimentWithCSV(t *testing.T) {
	csvDir := t.TempDir()
	if err := run(io.Discard, []string{"fig4"}, 1, 2, csvDir, false); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"fig4"}, 1, 2, "", true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "fig4_0.csv")); err != nil {
		t.Errorf("CSV not written: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, []string{"nonesuch"}, 1, 1, "", false); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// evaluationDigests pins sha256 of `tiersim -seed N run all` (ASCII mode)
// for N = 1, 2, 3, as printed since logit prices took their closed form
// and a cell that rounds to zero stopped printing a sign. A change that
// is meant to move the evaluation's numbers regenerates them with
//
//	for s in 1 2 3; do go run ./cmd/tiersim -seed $s run all | sha256sum; done
//
// and says in its PR which tables moved and why; any other change must
// leave them alone. docs/results-seed1.txt is the seed-1 run as a file
// and is held to the same digest; a change that moves it also runs
//
//	go run ./cmd/tiersim -seed 1 run all > docs/results-seed1.txt
var evaluationDigests = map[int64]string{
	1: "6cfaaf59b0e3058f8c803eae4ab0c77576407f6d6bb9e7fd878a8191199dc33e",
	2: "abde765d108b45009f3a15bd03efde5e08210e676d3c12b77e6d472bdf969e0a",
	3: "3e571e5ff2a6dbd82d1c54eef11d361034901b5d871d7e9b4d2dbdd38ca16a3f",
}

// TestEvaluationBytesPinned: the whole evaluation, serial and fanned out,
// hashes to the pinned value — not merely to the same value twice.
func TestEvaluationBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation ×3 seeds ×2 widths")
	}
	captured, err := os.ReadFile(filepath.Join("..", "..", "docs", "results-seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(captured); hex.EncodeToString(got[:]) != evaluationDigests[1] {
		t.Errorf("docs/results-seed1.txt: sha256 %x, pinned %s — the captured run is not what "+
			"`tiersim -seed 1 run all` prints; regenerate it as evaluationDigests' comment describes",
			got, evaluationDigests[1])
	}
	for seed, want := range evaluationDigests {
		for _, workers := range []int{1, runtime.NumCPU()} {
			h := sha256.New()
			if err := run(h, []string{"all"}, seed, workers, "", false); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("tiersim -seed %d -parallel %d run all: sha256 %s, pinned %s — the evaluation's output changed; "+
					"if that is intended, regenerate evaluationDigests as its comment describes",
					seed, workers, got, want)
			}
		}
	}
}
