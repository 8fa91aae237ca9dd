package main

import (
	"os"
	"path/filepath"
	"testing"

	"tieredpricing/internal/traces"
)

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"New York":    "New_York",
		"Zürich":      "Z-rich",
		"plain-name_": "plain-name_",
		"a/b":         "a-b",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunWritesTraceDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if err := run("euisp", 7, dir, false); err != nil {
		t.Fatal(err)
	}
	meta, geo, err := traces.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if geo.Len() == 0 {
		t.Error("geoip.csv read back empty")
	}
	if meta.Dataset != "euisp" || meta.Seed != 7 || meta.Routers < 2 {
		t.Errorf("unexpected meta %+v", meta)
	}
	for _, want := range []string{"meta.txt", "geoip.csv", "truth.csv"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
	streams, err := filepath.Glob(filepath.Join(dir, "*.nf5"))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) < 2 {
		t.Errorf("only %d router streams", len(streams))
	}
	if err := run("nonesuch", 1, dir, false); err == nil {
		t.Error("expected error for unknown dataset")
	}
}
