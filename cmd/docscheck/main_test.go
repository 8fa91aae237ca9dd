package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materialises a map of path → content under a temp root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// ciFixture dispatches two stages; its second case is not the dispatch.
const ciFixture = `docs() { :; }
case "${1:-}" in
"") ;;
recover | docs)
    "$1"
    ;;
*)
    exit 2
    ;;
esac
case "$x" in
later)
    ;;
esac
`

// healthyTree is a minimal repo that passes every lint.
func healthyTree() map[string]string {
	return map[string]string{
		"README.md": "see [docs/API.md](docs/API.md) and [ops](docs/OPERATIONS.md)\n" +
			"layout: cmd/tierd internal/server\n" +
			"gate: `./ci.sh` runs everything, `./ci.sh docs` the lint alone\n",
		"ci.sh":              ciFixture,
		"docs/API.md":        "back to [README](../README.md#layout)\n",
		"docs/OPERATIONS.md": "metrics: tierd_quote_requests_total\n",
		"cmd/tierd/main.go":  "package main\n",
		"internal/server/server.go": "package server\n" +
			"const name = \"tierd_quote_requests_total\"\n",
		"internal/server/server_test.go": "package server\n" +
			"const testOnly = \"tierd_test_only_metric\"\n",
	}
}

func TestDocscheckHealthy(t *testing.T) {
	root := writeTree(t, healthyTree())
	v, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("healthy tree flagged: %v", v)
	}
}

func TestDocscheckBrokenLink(t *testing.T) {
	files := healthyTree()
	files["docs/API.md"] = "see [gone](missing.md) and [ok](https://example.com/x.md)\n"
	v, err := check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !strings.Contains(v[0], "missing.md") {
		t.Fatalf("broken relative link not flagged (external must be skipped): %v", v)
	}
}

func TestDocscheckLayoutMapGap(t *testing.T) {
	files := healthyTree()
	files["internal/newpkg/x.go"] = "package newpkg\n"
	v, err := check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !strings.Contains(v[0], "internal/newpkg") {
		t.Fatalf("undocumented package not flagged: %v", v)
	}
	// The benchmark module is an entry like any command.
	files["bench/go.mod"] = "module tieredpricing/bench\n"
	v, err = check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 || !strings.Contains(v[1], "bench/") {
		t.Fatalf("benchmark module missing from the map not flagged: %v", v)
	}
	delete(files, "bench/go.mod")
	// A directory without Go files (e.g. docs assets) is not a package.
	files["internal/newpkg/x.go"] = ""
	delete(files, "internal/newpkg/x.go")
	files["internal/assets/data.txt"] = "not go\n"
	v, err = check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("non-package directory flagged: %v", v)
	}
}

func TestDocscheckUndocumentedMetric(t *testing.T) {
	files := healthyTree()
	files["internal/server/metrics.go"] = "package server\n" +
		"const added = \"tierd_brand_new_total\"\n"
	v, err := check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !strings.Contains(v[0], "tierd_brand_new_total") {
		t.Fatalf("undocumented metric not flagged: %v", v)
	}
	// Test-file metric names don't bind the manual.
	files["internal/server/metrics.go"] = "package server\n"
	v, err = check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("test-only metric name flagged: %v", v)
	}
}

func TestDocscheckCitedBenchmarkMissing(t *testing.T) {
	files := healthyTree()
	files["internal/server/bench_test.go"] = "package server\n\nfunc BenchmarkQuote(b *testing.B) {}\n"
	files["bench/layers/layers_test.go"] = "package layers\n\nfunc BenchmarkLayer(b *testing.B) {}\n"
	files["DESIGN.md"] = "run `BenchmarkQuote/hit` and BenchmarkLayer; benchmarks in general are fine\n"
	files["docs/API.md"] += "see BenchmarkGone, again BenchmarkGone\n"
	v, err := check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !strings.Contains(v[0], "docs/API.md") || !strings.Contains(v[0], "BenchmarkGone") {
		t.Fatalf("want one violation for BenchmarkGone in docs/API.md (sub-benchmark suffixes, the bench/ module "+
			"and repeats must not add more): %v", v)
	}
}

func TestDocscheckCitedTestMissing(t *testing.T) {
	files := healthyTree()
	files["cmd/tierd/main_test.go"] = "package main\n\nfunc TestKept(t *testing.T) {}\n\nfunc FuzzKept(f *testing.F) {}\n"
	files["ci.sh"] = ciFixture + "go test -run 'TestKept|TestGone' ./cmd/tierd\ngo test -fuzz='^FuzzKept$' ./cmd/tierd\n"
	files["README.md"] += "`TestKept/sub` runs; Tests and Fuzzing in general are fine\n"
	v, err := check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !strings.Contains(v[0], "ci.sh") || !strings.Contains(v[0], "TestGone") {
		t.Fatalf("want one violation for TestGone in ci.sh (declared tests and fuzz targets, "+
			"subtest suffixes and plain words must not add more): %v", v)
	}
}

func TestDocscheckCitedStageOrPackageMissing(t *testing.T) {
	files := healthyTree()
	files["DESIGN.md"] = "`./ci.sh recover` and `SEED=1 ./ci.sh docs` exist; `./ci.sh later` is another case, not the dispatch\n"
	files["docs/OPERATIONS.md"] += "run `./ci.sh retired`, built from cmd/retired and internal/server/metrics.go; again ./ci.sh retired\n"
	files["cmd/retired"] = "a file, not a package directory\n"
	files["CHANGES.md"] = "history may name ./ci.sh gone and internal/gone\n"
	v, err := check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 || !strings.Contains(v[0], "DESIGN.md: cites ./ci.sh later") ||
		!strings.Contains(v[1], "docs/OPERATIONS.md: cites ./ci.sh retired") ||
		!strings.Contains(v[2], "docs/OPERATIONS.md: cites cmd/retired") {
		t.Fatalf("want the undispatched stages and the missing package flagged once each, "+
			"and CHANGES.md exempt: %v", v)
	}
}

func TestDocscheckFlagsTable(t *testing.T) {
	files := healthyTree()
	files["cmd/tierd/main.go"] = "package main\n\nfunc main() {\n" +
		"\tflag.StringVar(&cfg.listen, \"listen\", \"127.0.0.1:8080\", \"HTTP listen address\")\n" +
		"\tflag.IntVar(\n\t\t&cfg.tiers, \"tiers\", 3, \"tiers\")\n" +
		"\tshowVersion := flag.Bool(\"version\", false, \"print build info\")\n\tflag.Parse()\n}\n"
	files["docs/OPERATIONS.md"] += "| flag | default | meaning |\n|---|---|---|\n" +
		"| `-listen` | `127.0.0.1:8080` | HTTP listen address |\n| `-tiers` | `3` | tiers |\n" +
		"| `-retired` | `1` | a flag tierd no longer defines |\n" +
		"| `tierd_quote_requests_total` | counter | not a flag row |\n"
	v, err := check(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 || !strings.Contains(v[0], "flag -version has no row") ||
		!strings.Contains(v[1], "row for -retired") {
		t.Fatalf("want the undocumented -version and the unregistered -retired flagged once each: %v", v)
	}
}
