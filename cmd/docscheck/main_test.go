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

// healthyTree is a minimal repo that passes every lint.
func healthyTree() map[string]string {
	return map[string]string{
		"README.md": "see [docs/API.md](docs/API.md) and [ops](docs/OPERATIONS.md)\n" +
			"layout: cmd/tierd internal/server\n",
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
