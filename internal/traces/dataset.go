// Package traces synthesizes the three network datasets of the paper's
// Table 1 — a European transit ISP, an international CDN, and the
// Internet2 research backbone. The real datasets are proprietary 24-hour
// sampled NetFlow captures; these generators produce populations whose
// four published statistics (demand-weighted mean flow distance, distance
// CV, aggregate traffic, demand CV) match the paper's, built on the same
// structural machinery the paper describes: PoP topologies for the EU
// ISP and Internet2, a GeoIP database for the CDN, and NetFlow emission
// with cross-router duplication for the collection pipeline.
//
// Demand is coupled to distance by a gravity law q ∝ d^{−η}·ε (see
// DESIGN.md §2): exponential tilting makes the calibration analytic, and
// the coupling is what gives the demand/profit-weighted bundling
// strategies their paper-reported performance.
package traces

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/geoip"
	"tieredpricing/internal/stats"
	"tieredpricing/internal/topology"
)

// Targets are the Table 1 statistics a generator calibrates to.
type Targets struct {
	// WeightedMeanDistance is the demand-weighted mean flow distance in
	// miles.
	WeightedMeanDistance float64
	// DistanceCV is the coefficient of variation of flow distances.
	DistanceCV float64
	// AggregateGbps is total traffic in Gbit/s.
	AggregateGbps float64
	// DemandCV is the coefficient of variation of per-flow demands.
	DemandCV float64
}

// Config parameterizes a synthetic dataset.
type Config struct {
	// Name labels the dataset ("euisp", "cdn", "internet2").
	Name string
	// Seed makes generation reproducible.
	Seed int64
	// NumFlows is the number of destination flows to synthesize.
	NumFlows int
	// Targets are the Table 1 statistics to calibrate to.
	Targets Targets
	// NoiseSigma is the lognormal σ of the demand noise ε (default 0.25).
	NoiseSigma float64
	// ElephantFraction and ElephantFactor inject a few outsized flows
	// (fraction of flows, demand multiplier). Research backbones like
	// Internet2 owe their extreme demand CV (4.53 in Table 1) to a
	// handful of bulk-transfer elephants rather than to gravity alone,
	// which a finite PoP-pair set cannot reproduce by tilting.
	ElephantFraction float64
	ElephantFactor   float64
	// P0 is the blended rate in $/Mbps/month associated with the dataset.
	P0 float64
	// DurationSec is the capture window (default 24h).
	DurationSec float64
}

// FlowMeta carries a flow's endpoint attachments for pipeline replay.
type FlowMeta struct {
	// SrcCity/DstCity and countries locate the endpoints.
	SrcCity, SrcCountry string
	DstCity, DstCountry string
	// SrcIP is the flow's source address (inside the source PoP's
	// loopback prefix); DstPrefix is the destination block.
	SrcIP     netip.Addr
	DstPrefix netip.Prefix
	// Path is the router path (Internet2 only; nil otherwise).
	Path []string
}

// Dataset is a generated network trace: fitted-ready flows, endpoint
// metadata, and the substrate objects (topology graph, GeoIP DB) needed
// to re-derive distances from raw NetFlow data.
type Dataset struct {
	Name        string
	P0          float64
	DurationSec float64
	Flows       []econ.Flow
	Meta        []FlowMeta
	Graph       *topology.Graph
	Geo         *geoip.DB
	// SamplingInterval is the 1-in-N packet sampling the exporters apply.
	SamplingInterval uint16
	// Targets echoes the calibration targets for reporting.
	Targets Targets

	// cities indexes auxiliary (non-graph) cities by name, e.g. the CDN's
	// GeoIP destination cities.
	cities map[string]topology.City
}

// Stats are a dataset's measured Table 1 statistics.
type Stats struct {
	Flows                int
	WeightedMeanDistance float64
	DistanceCV           float64 // demand-weighted
	AggregateGbps        float64
	DemandCV             float64
}

// Stats measures the dataset.
func (ds *Dataset) Stats() (Stats, error) {
	return MeasureFlows(ds.Flows)
}

// MeasureFlows computes Table 1 statistics for any flow set.
func MeasureFlows(flows []econ.Flow) (Stats, error) {
	if len(flows) == 0 {
		return Stats{}, errors.New("traces: no flows")
	}
	ds := make([]float64, len(flows))
	qs := make([]float64, len(flows))
	for i, f := range flows {
		ds[i] = f.Distance
		qs[i] = f.Demand
	}
	wm, err := stats.WeightedMean(ds, qs)
	if err != nil {
		return Stats{}, err
	}
	wcv, err := stats.WeightedCV(ds, qs)
	if err != nil {
		return Stats{}, err
	}
	qcv, err := stats.CV(qs)
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Flows:                len(flows),
		WeightedMeanDistance: wm,
		DistanceCV:           wcv,
		AggregateGbps:        stats.Sum(qs) / 1000,
		DemandCV:             qcv,
	}, nil
}

// endpointPair is a candidate (src, dst) attachment with its flow
// distance under the dataset's distance heuristic.
type endpointPair struct {
	src, dst topology.City
	distance float64
	path     []string
}

// calibration is the analytic gravity calibration of DESIGN.md §2.
type calibration struct {
	mu, sigma float64 // raw distance lognormal parameters
	eta       float64 // gravity exponent
	noise     float64 // demand noise σ
}

// calibrate solves the Table 1 moments for generator parameters:
// σ from the distance CV, η from the demand CV net of noise, μ from the
// demand-weighted mean distance under the exponential tilt.
func calibrate(t Targets, noise float64) (calibration, error) {
	if t.WeightedMeanDistance <= 0 || t.DistanceCV <= 0 || t.DemandCV <= 0 {
		return calibration{}, errors.New("traces: targets must be positive")
	}
	sigma := math.Sqrt(math.Log(1 + t.DistanceCV*t.DistanceCV))
	lnQVar := math.Log(1 + t.DemandCV*t.DemandCV)
	etaVar := lnQVar - noise*noise
	if etaVar <= 0 {
		return calibration{}, fmt.Errorf("traces: demand noise σ=%v exceeds demand CV target", noise)
	}
	eta := math.Sqrt(etaVar) / sigma
	// Demand-weighted ln d ~ N(μ − ησ², σ²); its mean distance is
	// exp(μ − ησ² + σ²/2) = target ⇒ μ = ln(target) + ησ² − σ²/2.
	mu := math.Log(t.WeightedMeanDistance) + eta*sigma*sigma - sigma*sigma/2
	return calibration{mu: mu, sigma: sigma, eta: eta, noise: noise}, nil
}

// generate synthesizes flows: sample target distances from the calibrated
// lognormal, snap each to the candidate endpoint pair of nearest distance
// (randomizing among near-equals), attach gravity demands, and scale to
// the aggregate traffic target.
func generate(cfg Config, pairs []endpointPair, graph *topology.Graph, cities map[string]topology.City) (*Dataset, error) {
	if cfg.NumFlows <= 0 {
		return nil, errors.New("traces: NumFlows must be positive")
	}
	if len(pairs) == 0 {
		return nil, errors.New("traces: no endpoint pairs")
	}
	if cfg.NoiseSigma == 0 {
		cfg.NoiseSigma = 0.25
	}
	if cfg.DurationSec == 0 {
		cfg.DurationSec = 24 * 3600
	}
	if cfg.P0 <= 0 {
		return nil, errors.New("traces: P0 must be positive")
	}
	cal, err := calibrate(cfg.Targets, cfg.NoiseSigma)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	sorted := append([]endpointPair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].distance < sorted[j].distance })
	dists := make([]float64, len(sorted))
	for i, p := range sorted {
		dists[i] = p.distance
	}

	flows := make([]econ.Flow, cfg.NumFlows)
	meta := make([]FlowMeta, cfg.NumFlows)
	for i := range flows {
		target := math.Exp(cal.mu + cal.sigma*r.NormFloat64())
		pair := sorted[snapIndex(dists, target, r)]
		d := pair.distance
		if d < 1 {
			d = 1 // metro flows: floor as in the cost models
		}
		q := math.Pow(d, -cal.eta) * math.Exp(cal.noise*r.NormFloat64())
		flows[i] = econ.Flow{
			ID:       fmt.Sprintf("%s/%s->%s/%d", cfg.Name, pair.src.Name, pair.dst.Name, i),
			Demand:   q,
			Distance: pair.distance,
			Region:   classify(pair),
		}
		meta[i] = FlowMeta{
			SrcCity: pair.src.Name, SrcCountry: pair.src.Country,
			DstCity: pair.dst.Name, DstCountry: pair.dst.Country,
			Path: pair.path,
		}
	}
	// Inject elephant flows before the final scaling.
	if cfg.ElephantFraction > 0 && cfg.ElephantFactor > 1 {
		n := int(math.Ceil(cfg.ElephantFraction * float64(len(flows))))
		for k := 0; k < n; k++ {
			flows[r.Intn(len(flows))].Demand *= cfg.ElephantFactor
		}
	}
	markOnNet(flows, onNetDemandShare)
	// Scale demands to the aggregate traffic target (Mbps).
	var total float64
	for _, f := range flows {
		total += f.Demand
	}
	scale := cfg.Targets.AggregateGbps * 1000 / total
	for i := range flows {
		flows[i].Demand *= scale
	}

	ds := &Dataset{
		Name:             cfg.Name,
		P0:               cfg.P0,
		DurationSec:      cfg.DurationSec,
		Flows:            flows,
		Meta:             meta,
		Graph:            graph,
		SamplingInterval: 1000,
		Targets:          cfg.Targets,
		cities:           cities,
	}
	if err := ds.assignAddresses(); err != nil {
		return nil, err
	}
	return ds, nil
}

// onNetDemandShare is the fraction of demand destined to the ISP's own
// customers ("on net", §2.1). Transit customers of a network are
// predominantly nearby, so the most-local flows are marked first.
const onNetDemandShare = 0.3

// markOnNet flags the shortest-distance flows as on-net until the target
// demand share is covered.
func markOnNet(flows []econ.Flow, share float64) {
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return flows[order[a]].Distance < flows[order[b]].Distance
	})
	var total float64
	for _, f := range flows {
		total += f.Demand
	}
	var covered float64
	for _, i := range order {
		if covered >= share*total {
			break
		}
		flows[i].OnNet = true
		covered += flows[i].Demand
	}
}

// snapIndex picks a candidate index whose distance is near target,
// randomizing among candidates within ±20% (or the single nearest when
// none are that close), so repeated snaps spread across similar pairs.
func snapIndex(sorted []float64, target float64, r *rand.Rand) int {
	lo := sort.SearchFloat64s(sorted, target*0.8)
	hi := sort.SearchFloat64s(sorted, target*1.2)
	if lo < hi {
		return lo + r.Intn(hi-lo)
	}
	// Nearest of the two neighbors of the insertion point.
	i := sort.SearchFloat64s(sorted, target)
	if i == 0 {
		return 0
	}
	if i >= len(sorted) {
		return len(sorted) - 1
	}
	if target-sorted[i-1] <= sorted[i]-target {
		return i - 1
	}
	return i
}

// classify derives the regional class from the endpoints: same city is
// metro, same country national, everything else international (§3.3).
func classify(p endpointPair) econ.Region {
	switch {
	case p.src.Name == p.dst.Name:
		return econ.RegionMetro
	case p.src.Country == p.dst.Country:
		return econ.RegionNational
	default:
		return econ.RegionInternational
	}
}
