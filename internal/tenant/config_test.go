package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// basePricing stands in for the pricing a -config file overlays: every
// field non-zero, so inheriting one is visible.
var basePricing = Pricing{Model: "ced", Alpha: 1.1, S0: 0.2, Theta: 0.2,
	Strategy: "profit-weighted", Tiers: 3, Blended: 2.5, DemandSec: 600}

// TestDefaultPricing pins tierd's base pricing to the values its eight
// retired pricing flags defaulted to, so a deployment that never set
// them prices exactly as before.
func TestDefaultPricing(t *testing.T) {
	want := Pricing{Model: "ced", Alpha: 1.1, S0: 0.2, Theta: 0.2,
		Strategy: "profit-weighted", Tiers: 3, Blended: 0, DemandSec: 0}
	if DefaultPricing != want {
		t.Fatalf("DefaultPricing = %+v, want %+v", DefaultPricing, want)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeFile(t *testing.T, path, body string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPricingLayers pins the two overlay rules, field by field, over
// base → -config → tenant spec. A -config key overrides whenever it is
// present, an explicit zero included, and an absent or null key keeps
// the base's value; a tenant spec's field overrides only when non-zero.
func TestPricingLayers(t *testing.T) {
	// A -config value and a tenant-spec value per key, both non-zero and
	// different from the base's.
	overrides := map[string][2]any{
		"model":      {"logit", "ced-spec"},
		"alpha":      {1.7, 2.3},
		"s0":         {0.3, 0.4},
		"theta":      {0.25, 0.35},
		"strategy":   {"optimal", "cost-weighted"},
		"tiers":      {5, 7},
		"blended":    {4.5, -3.0},
		"demand_sec": {60.0, 90.0},
	}
	dir := t.TempDir()
	fields := reflect.VisibleFields(reflect.TypeOf(Pricing{}))
	if len(fields) != len(overrides) {
		t.Fatalf("Pricing has %d fields, the table covers %d", len(fields), len(overrides))
	}
	// with is basePricing, or base, with one field set to v.
	with := func(base Pricing, f reflect.StructField, v any) Pricing {
		reflect.ValueOf(&base).Elem().FieldByIndex(f.Index).Set(reflect.ValueOf(v))
		return base
	}
	for _, f := range fields {
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		ov, ok := overrides[key]
		if !ok {
			t.Fatalf("no override values for key %q", key)
		}
		baseV := reflect.ValueOf(basePricing).FieldByIndex(f.Index).Interface()
		zero := reflect.Zero(f.Type).Interface()
		for _, c := range []struct {
			name, body string
			want       any
		}{
			{"absent", `{}`, baseV},
			{"null", fmt.Sprintf(`{%q: null}`, key), baseV},
			{"explicit zero", fmt.Sprintf(`{%q: %s}`, key, mustJSON(t, zero)), zero},
			{"set", fmt.Sprintf(`{%q: %s}`, key, mustJSON(t, ov[0])), ov[0]},
		} {
			path := writeFile(t, filepath.Join(dir, "pricing.json"), c.body)
			afterConfig, err := LoadPricingFile(path, basePricing)
			if err != nil {
				t.Fatalf("%s %s: %v", key, c.name, err)
			}
			if want := with(basePricing, f, c.want); afterConfig != want {
				t.Fatalf("%s %s in -config: got %+v, want %+v", key, c.name, afterConfig, want)
			}
			for _, sc := range []struct {
				name, spec string
				want       any
			}{
				{"zero", `{"id": "a"}`, c.want},
				{"set", fmt.Sprintf(`{"id": "a", %q: %s}`, key, mustJSON(t, ov[1])), ov[1]},
			} {
				specPath := writeFile(t, filepath.Join(dir, "tenants.json"), `{"tenants": [`+sc.spec+`]}`)
				specs, _, err := LoadSpecFile(specPath)
				if err != nil {
					t.Fatalf("%s spec %s: %v", key, sc.name, err)
				}
				got := specs[0].Pricing.Over(afterConfig)
				if want := with(afterConfig, f, sc.want); got != want {
					t.Fatalf("%s %s in -config, %s in spec: got %+v, want %+v", key, c.name, sc.name, got, want)
				}
			}
		}
	}
}

// TestLoadPricingFileStrict: the -config keys are exactly Pricing's, and
// the file holds one JSON object.
func TestLoadPricingFileStrict(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadPricingFile(filepath.Join(dir, "missing.json"), basePricing); err == nil {
		t.Fatal("missing file should error")
	}
	for _, body := range []string{
		`{"trace": "/tmp/a"}`, // a tenant-spec key, not a pricing one
		`{"tierz": 3}`,
		`{"tiers": 3} {}`,
		`{"tiers": "3"}`,
		`{`,
	} {
		path := writeFile(t, filepath.Join(dir, "pricing.json"), body)
		if got, err := LoadPricingFile(path, basePricing); err == nil {
			t.Errorf("%s loaded as %+v, want an error", body, got)
		}
	}
}

// FuzzDecodeSpecs feeds arbitrary bytes through the one strict decoder
// that reads both -tenants and -config files, then ValidateSpecs and
// Over. It must never panic; a spec set it accepts must re-encode and
// re-decode equal; a -config body it accepts must too; and Over must be
// idempotent.
func FuzzDecodeSpecs(f *testing.F) {
	for _, seed := range []string{
		`{"tenants": [{"id": "a", "trace": "/t", "routers": [1, 2], "model": "logit", "tiers": 4}]}`,
		`{"tenants": [{"id": "a", "routers": []}, {"id": "b", "default": true, "weight": 2, "rate_qps": 5, "blended": -3}]}`,
		`{"tenants": [{"id": "a", "rate_qsp": 50}]}`,
		`{"tenants": [{"id": "a"}]} {"tenants": []}`,
		`{"tiers": 0, "alpha": null, "demand_sec": 60}`,
		`{"model": "logit", "s0": -0, "theta": 1e-300}`,
		`null`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var file configFile
		if decodeStrict(data, &file) == nil {
			if def, err := ValidateSpecs(file.Tenants); err == nil {
				var again configFile
				if err := decodeStrict([]byte(mustJSON(t, file)), &again); err != nil {
					t.Fatalf("re-decoding an accepted spec set: %v", err)
				}
				for _, specs := range [][]Spec{file.Tenants, again.Tenants} {
					for i := range specs {
						if len(specs[i].Routers) == 0 {
							specs[i].Routers = nil // omitempty drops an empty list
						}
					}
				}
				if !reflect.DeepEqual(file, again) {
					t.Fatalf("spec set changed over a re-encode:\n%+v\n%+v", file, again)
				}
				if def2, _ := ValidateSpecs(again.Tenants); def2 != def {
					t.Fatalf("default %q became %q over a re-encode", def, def2)
				}
				for _, sp := range file.Tenants {
					once := sp.Pricing.Over(basePricing)
					if twice := sp.Pricing.Over(once); twice != once {
						t.Fatalf("Over not idempotent: %+v then %+v", once, twice)
					}
				}
			}
		}
		p := basePricing
		if decodeStrict(data, &p) == nil {
			var again Pricing
			if err := decodeStrict([]byte(mustJSON(t, p)), &again); err != nil || again != p {
				t.Fatalf("-config pricing %+v re-decoded as %+v (%v)", p, again, err)
			}
			if twice := p.Over(p.Over(basePricing)); twice != p.Over(basePricing) {
				t.Fatalf("Over not idempotent on %+v", p)
			}
		}
	})
}
