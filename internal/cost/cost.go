// Package cost implements the four network cost models of §3.3 of the
// paper. Each model maps a flow's attributes (distance, destination
// region, on-/off-net class) to a *relative* unit cost f_i; the absolute
// cost is c_i = γ·f_i with the scaling coefficient γ recovered by the
// demand model's calibration step (§4.1.3), so the models here never need
// to know real dollar figures.
//
// Every model carries the paper's generic tuning parameter θ, whose
// meaning is model-specific: the relative base ("fixed") cost for the
// distance models, the inter-region cost exponent for the regional model,
// and the on-net traffic fraction for the destination-type model.
package cost

import (
	"errors"
	"fmt"
	"math"

	"tieredpricing/internal/econ"
)

// MinDistance floors flow distances (miles) before they enter a distance
// cost function, so that intra-PoP flows (distance ≈ 0) still carry a
// positive relative cost.
const MinDistance = 1.0

// minRelative floors the concave model's output: the fitted log curve goes
// non-positive for distances below ~0.6% of the maximum, where the paper's
// normalized price data has no support.
const minRelative = 1e-3

// Model maps flows to relative unit costs f_i > 0. Implementations must
// not mutate the flows.
type Model interface {
	// Name identifies the model ("linear", "concave", "regional",
	// "desttype").
	Name() string
	// RelativeCosts returns one positive relative cost per flow.
	RelativeCosts(flows []econ.Flow) ([]float64, error)
}

// Linear is the linear-in-distance model: c_i = γ·d_i + β with base cost
// β = θ·max_j(γ·d_j) (§3.3). In relative terms,
//
//	f_i = d_i + θ·max_j d_j.
//
// Low θ means link distance dominates total cost; high θ flattens the
// cost differences between flows.
type Linear struct {
	// Theta is the relative base-cost fraction θ ≥ 0.
	Theta float64
}

// Name implements Model.
func (m Linear) Name() string { return "linear" }

// RelativeCosts implements Model.
func (m Linear) RelativeCosts(flows []econ.Flow) ([]float64, error) {
	if m.Theta < 0 {
		return nil, fmt.Errorf("cost: linear theta must be >= 0, got %v", m.Theta)
	}
	if len(flows) == 0 {
		return nil, errors.New("cost: no flows")
	}
	maxD := 0.0
	for _, f := range flows {
		if d := effDistance(f); d > maxD {
			maxD = d
		}
	}
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = effDistance(f) + m.Theta*maxD
	}
	return out, nil
}

// Concave is the concave-in-distance model: c_i = γ(a·log_b(d̂_i) + c) + β
// with d̂ the distance normalized by the network's maximum (§3.3). The
// default curve constants come from the paper's fit of the ITU price data
// in Figure 6 (a ≈ 0.43, b ≈ 9.43, c ≈ 0.99). As in the linear model the
// base cost is β = θ·max_j f0_j.
type Concave struct {
	// Theta is the relative base-cost fraction θ ≥ 0.
	Theta float64
	// A, B, C parameterize f0(d̂) = A·log_B(d̂) + C. Zero values select
	// the paper's ITU fit.
	A, B, C float64
}

// Name implements Model.
func (m Concave) Name() string { return "concave" }

// curve returns the model's constants, substituting the paper defaults.
func (m Concave) curve() (a, b, c float64) {
	a, b, c = m.A, m.B, m.C
	if a == 0 && b == 0 && c == 0 {
		return 0.43, 9.43, 0.99
	}
	return a, b, c
}

// RelativeCosts implements Model.
func (m Concave) RelativeCosts(flows []econ.Flow) ([]float64, error) {
	if m.Theta < 0 {
		return nil, fmt.Errorf("cost: concave theta must be >= 0, got %v", m.Theta)
	}
	if len(flows) == 0 {
		return nil, errors.New("cost: no flows")
	}
	a, b, c := m.curve()
	if b <= 0 || b == 1 {
		return nil, fmt.Errorf("cost: invalid log base %v", b)
	}
	maxD := 0.0
	for _, f := range flows {
		if d := effDistance(f); d > maxD {
			maxD = d
		}
	}
	out := make([]float64, len(flows))
	maxF0 := 0.0
	for i, f := range flows {
		norm := effDistance(f) / maxD
		f0 := a*math.Log(norm)/math.Log(b) + c
		if f0 < minRelative {
			f0 = minRelative
		}
		out[i] = f0
		if f0 > maxF0 {
			maxF0 = f0
		}
	}
	for i := range out {
		out[i] += m.Theta * maxF0
	}
	return out, nil
}

// Regional is the destination-region model (§3.3): three cost classes with
//
//	f_metro = 1,  f_national = 2^θ,  f_international = 3^θ.
//
// θ = 0 erases regional differences, θ = 1 makes them linear in the region
// index, θ > 1 separates them by magnitudes.
type Regional struct {
	// Theta is the inter-region exponent θ ≥ 0.
	Theta float64
}

// Name implements Model.
func (m Regional) Name() string { return "regional" }

// RelativeCosts implements Model, keyed on each flow's Region.
func (m Regional) RelativeCosts(flows []econ.Flow) ([]float64, error) {
	if m.Theta < 0 {
		return nil, fmt.Errorf("cost: regional theta must be >= 0, got %v", m.Theta)
	}
	if len(flows) == 0 {
		return nil, errors.New("cost: no flows")
	}
	out := make([]float64, len(flows))
	for i, f := range flows {
		switch f.Region {
		case econ.RegionMetro:
			out[i] = 1
		case econ.RegionNational:
			out[i] = math.Pow(2, m.Theta)
		case econ.RegionInternational:
			out[i] = math.Pow(3, m.Theta)
		default:
			return nil, fmt.Errorf("cost: flow %q has unknown region %v", f.ID, f.Region)
		}
	}
	return out, nil
}

// ClassifyByDistance assigns the paper's EU-ISP regional classes from
// distance alone (§3.3): flows traveling less than metroMax miles are
// metro, less than nationalMax national, all others international. The
// paper uses 10 and 100 miles.
func ClassifyByDistance(d, metroMax, nationalMax float64) econ.Region {
	switch {
	case d < metroMax:
		return econ.RegionMetro
	case d < nationalMax:
		return econ.RegionNational
	default:
		return econ.RegionInternational
	}
}

// DestType is the destination-type ("on-net"/"off-net") model (§3.3):
// traffic to the ISP's own customers recovers part of its transport cost
// from the receiving customer, so off-net traffic is modeled as twice as
// costly as on-net traffic:
//
//	f_onnet = 1,  f_offnet = OffNetFactor (default 2).
//
// The paper's θ — the fraction of traffic at each distance that is
// on-net — is applied when the flow set is constructed (see
// core.SplitByDestType), not here.
type DestType struct {
	// OffNetFactor is the off-net/on-net cost ratio; zero selects the
	// paper's factor of 2.
	OffNetFactor float64
}

// Name implements Model.
func (m DestType) Name() string { return "desttype" }

// RelativeCosts implements Model, keyed on each flow's OnNet flag.
func (m DestType) RelativeCosts(flows []econ.Flow) ([]float64, error) {
	if len(flows) == 0 {
		return nil, errors.New("cost: no flows")
	}
	factor := m.OffNetFactor
	if factor == 0 {
		factor = 2
	}
	if factor <= 0 {
		return nil, fmt.Errorf("cost: off-net factor must be positive, got %v", factor)
	}
	out := make([]float64, len(flows))
	for i, f := range flows {
		if f.OnNet {
			out[i] = 1
		} else {
			out[i] = factor
		}
	}
	return out, nil
}

// effDistance returns the flow's distance floored at MinDistance.
func effDistance(f econ.Flow) float64 {
	if f.Distance < MinDistance {
		return MinDistance
	}
	return f.Distance
}
