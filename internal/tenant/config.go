// Package tenant turns tierd into a multi-tenant pricing fleet: many
// networks (ISPs) priced from one process, each with its own sliding
// window, repricer, demand-model configuration, durability namespace
// and API quota. The paper prices a single provider; its premise — each
// provider choosing a tier structure for its own demand profile —
// implies a fleet of pricing instances, and one process per network
// does not scale to the ROADMAP's millions of users.
//
// The package owns three mechanisms:
//
//   - Registry: the tenant table and the NetFlow ingest router. Export
//     datagrams carry the exporting router's engine ID; the registry
//     maps engine IDs to tenants so core routers belonging to different
//     networks can share one collector port.
//   - Bucket: a token-bucket rate limiter guarding each tenant's quote
//     path, so one tenant's client storm cannot consume the API.
//   - Scheduler: a weighted-fair reprice scheduler with a starvation
//     bound, so N tenants share the reprice worker pool proportionally
//     to weight and one tenant's expensive re-fit cannot starve the
//     others' pricing freshness.
package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Pricing is one pricing engine's economics: the demand and cost
// models, the bundling strategy and tier count, the blended-rate anchor
// and the octets→Mbps window. tierd starts from DefaultPricing, a
// -config file is decoded onto a copy of it, and each tenant spec
// overlays its own (Over) — defaults < -config < tenant spec.
type Pricing struct {
	Model    string  `json:"model,omitempty"`    // "ced" or "logit"
	Alpha    float64 `json:"alpha,omitempty"`    // price sensitivity α
	S0       float64 `json:"s0,omitempty"`       // logit no-purchase share
	Theta    float64 `json:"theta,omitempty"`    // linear cost base fraction θ
	Strategy string  `json:"strategy,omitempty"` // bundling strategy name
	Tiers    int     `json:"tiers,omitempty"`    // tier count
	// Blended overrides the trace meta's blended rate ($/Mbps/month);
	// zero keeps the meta's.
	Blended float64 `json:"blended,omitempty"`
	// DemandSec overrides the octets→Mbps conversion window (seconds);
	// zero keeps the trace meta's capture duration.
	DemandSec float64 `json:"demand_sec,omitempty"`
}

// DefaultPricing is the pricing tierd starts from: CED demand at α 1.1
// (s0 0.2 should a -config switch to logit), the linear cost model at
// θ 0.2, three profit-weighted tiers, and the trace meta's blended rate
// and capture duration.
var DefaultPricing = Pricing{Model: "ced", Alpha: 1.1, S0: 0.2, Theta: 0.2,
	Strategy: "profit-weighted", Tiers: 3}

// Over overlays p on base: every non-zero field of p wins, every zero
// field inherits base's. This is the tenant-spec rule; a -config file
// instead overrides with whatever keys it holds (LoadPricingFile).
func (p Pricing) Over(base Pricing) Pricing {
	if p.Model != "" {
		base.Model = p.Model
	}
	if p.Alpha != 0 {
		base.Alpha = p.Alpha
	}
	if p.S0 != 0 {
		base.S0 = p.S0
	}
	if p.Theta != 0 {
		base.Theta = p.Theta
	}
	if p.Strategy != "" {
		base.Strategy = p.Strategy
	}
	if p.Tiers != 0 {
		base.Tiers = p.Tiers
	}
	if p.Blended != 0 {
		base.Blended = p.Blended
	}
	if p.DemandSec != 0 {
		base.DemandSec = p.DemandSec
	}
	return base
}

// Spec is one tenant's configuration, as read from the -tenants file.
// Zero-valued pricing fields inherit the daemon's pricing (the defaults
// under any -config file), so a spec can be as small as
// {"id": "x", "trace": "/path"}.
type Spec struct {
	// ID names the tenant on the API (/v1/t/{id}/...) and on disk
	// (<data-dir>/tenants/<id>). Lowercase letters, digits, '-', '_',
	// '.' only, so the ID is safe in URLs and file names.
	ID string `json:"id"`
	// Trace is the tenant's trace directory (geoip.csv + meta.txt): the
	// endpoint resolver and blended-rate anchor are per-tenant. Empty
	// inherits the daemon's -trace directory.
	Trace string `json:"trace,omitempty"`
	// Default marks the tenant the legacy (un-prefixed) API paths alias.
	// At most one tenant may set it; with none set, the first tenant in
	// the file is the default.
	Default bool `json:"default,omitempty"`

	// Weight is the tenant's share of the reprice worker pool (WFQ);
	// zero means 1. A weight-2 tenant gets twice the reprice throughput
	// of a weight-1 tenant when the pool is contended.
	Weight float64 `json:"weight,omitempty"`

	// RateQPS and RateBurst configure the quote-path token bucket:
	// sustained quotes per second and the burst capacity. RateQPS 0
	// disables limiting for the tenant; RateBurst 0 defaults to RateQPS.
	RateQPS   float64 `json:"rate_qps,omitempty"`
	RateBurst float64 `json:"rate_burst,omitempty"`

	// Routers lists the NetFlow engine IDs (Header.EngineID) whose
	// export datagrams route to this tenant. IDs must be unique across
	// the file. Datagrams from unlisted engines route to the default
	// tenant.
	Routers []uint8 `json:"routers,omitempty"`

	// Pricing holds the tenant's overrides of the daemon's pricing
	// (Pricing.Over). Its keys sit directly in the tenant's object.
	Pricing
}

// configFile is the -tenants file shape.
type configFile struct {
	Tenants []Spec `json:"tenants"`
}

// validID reports whether id is safe for URLs and directory names.
func validID(id string) bool {
	if id == "" || id == "." || id == ".." {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// ValidateSpecs checks cross-tenant invariants: at least one tenant,
// unique well-formed IDs, unique router assignments, non-negative
// weights and rates, at most one explicit default. It returns the
// default tenant's ID (the explicit one, else the first).
func ValidateSpecs(specs []Spec) (defaultID string, err error) {
	if len(specs) == 0 {
		return "", fmt.Errorf("tenant: no tenants configured")
	}
	ids := make(map[string]bool, len(specs))
	routers := make(map[uint8]string)
	for _, s := range specs {
		if !validID(s.ID) {
			return "", fmt.Errorf("tenant: invalid id %q (lowercase letters, digits, '-', '_', '.')", s.ID)
		}
		if ids[s.ID] {
			return "", fmt.Errorf("tenant: duplicate id %q", s.ID)
		}
		ids[s.ID] = true
		if s.Weight < 0 {
			return "", fmt.Errorf("tenant %q: negative weight %v", s.ID, s.Weight)
		}
		if s.RateQPS < 0 || s.RateBurst < 0 {
			return "", fmt.Errorf("tenant %q: negative rate limit", s.ID)
		}
		if s.Tiers < 0 {
			return "", fmt.Errorf("tenant %q: negative tier count", s.ID)
		}
		for _, r := range s.Routers {
			if prev, taken := routers[r]; taken {
				return "", fmt.Errorf("tenant %q: router %d already routed to %q", s.ID, r, prev)
			}
			routers[r] = s.ID
		}
		if s.Default {
			if defaultID != "" {
				return "", fmt.Errorf("tenant %q: default already claimed by %q", s.ID, defaultID)
			}
			defaultID = s.ID
		}
	}
	if defaultID == "" {
		defaultID = specs[0].ID
	}
	return defaultID, nil
}

// decodeStrict decodes the one JSON value in data into v. Unknown keys
// and anything after the value are errors, so a misspelt key cannot load
// as a silent no-op. Keys absent from data (or null) leave v's fields as
// they were.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// LoadSpecFile reads and validates a -tenants JSON file. Parsing is
// strict (decodeStrict), so a misspelt quota ("rate_qsp") refuses to
// boot instead of running unlimited.
func LoadSpecFile(path string) (specs []Spec, defaultID string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("tenant: %w", err)
	}
	var f configFile
	if err := decodeStrict(data, &f); err != nil {
		return nil, "", fmt.Errorf("tenant: parsing %s: %w", path, err)
	}
	if defaultID, err = ValidateSpecs(f.Tenants); err != nil {
		return nil, "", fmt.Errorf("tenant: %s: %w", path, err)
	}
	return f.Tenants, defaultID, nil
}

// LoadPricingFile reads a -config file onto a copy of base (the defaults).
// Every key the file holds overrides, an explicit 0 included; absent and
// null keys keep base's value. The keys are exactly Pricing's, read
// strictly (decodeStrict).
func LoadPricingFile(path string, base Pricing) (Pricing, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Pricing{}, err
	}
	if err := decodeStrict(data, &base); err != nil {
		return Pricing{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return base, nil
}
