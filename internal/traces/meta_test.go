package traces

import (
	"strings"
	"testing"
)

func TestMetaRoundTrip(t *testing.T) {
	in := Meta{
		Dataset: "euisp", Seed: 7, Flows: 120,
		P0: 9.5, DurationSec: 86400, Sampling: 1000, Routers: 12,
	}
	var b strings.Builder
	if err := WriteMeta(&b, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMeta(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestReadMetaTolerance(t *testing.T) {
	// Unknown keys and blank lines are ignored; missing optional keys are
	// left zero.
	src := "dataset=cdn\nfuture_key=42\n\nblended_rate=12\nduration_sec=300\n"
	m, err := ReadMeta(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dataset != "cdn" || m.P0 != 12 || m.DurationSec != 300 || m.Sampling != 0 {
		t.Fatalf("unexpected meta %+v", m)
	}
}

func TestReadMetaRejectsIncomplete(t *testing.T) {
	cases := []string{
		"",
		"dataset=euisp\n",
		"dataset=euisp\nblended_rate=9.5\n",
		"blended_rate=9.5\nduration_sec=300\n",
		"dataset=euisp\nblended_rate=bogus\nduration_sec=300\n",
	}
	for _, src := range cases {
		if _, err := ReadMeta(strings.NewReader(src)); err == nil {
			t.Errorf("ReadMeta(%q): want error, got nil", src)
		}
	}
}

// TestReadMetaRejectsNonFinite: NaN and ±Inf parse as floats and pass a
// `<= 0` guard; the blended rate and duration must be finite and positive,
// and the error names the key.
func TestReadMetaRejectsNonFinite(t *testing.T) {
	for _, key := range []string{"blended_rate", "duration_sec"} {
		for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf", "0", "-3"} {
			fields := map[string]string{"blended_rate": "9.5", "duration_sec": "300"}
			fields[key] = bad
			src := "dataset=euisp\nblended_rate=" + fields["blended_rate"] + "\nduration_sec=" + fields["duration_sec"] + "\n"
			_, err := ReadMeta(strings.NewReader(src))
			if err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%s=%s: got error %v, want one naming %s", key, bad, err, key)
			}
		}
	}
}
