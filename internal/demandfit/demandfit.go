// Package demandfit is the stage between raw trace collection and the
// economic model (§4.1): it resolves NetFlow aggregates back to located
// endpoint pairs (GeoIP for addresses, topology for routed distances),
// applies the dataset-specific distance heuristic, classifies regions,
// and produces the fitted-ready flow set that core.NewMarket consumes.
package demandfit

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"

	"tieredpricing/internal/cost"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/geoip"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/parallel"
	"tieredpricing/internal/topology"
)

// EndpointResolver maps a (src, dst) address pair to flow distance and
// region. Resolver is the in-memory implementation; the faultinject
// package wraps any EndpointResolver to rehearse resolver outages.
type EndpointResolver interface {
	Resolve(src, dst netip.Addr) (float64, econ.Region, error)
}

// ContextResolver is an EndpointResolver whose lookups can block (a
// network-backed or fault-injected resolver). ResolveContext must return
// promptly once ctx is done; BuildFlows prefers it over Resolve when the
// resolver implements it, which is what keeps a bounded shutdown drain
// bounded even when a resolve is wedged.
type ContextResolver interface {
	ResolveContext(ctx context.Context, src, dst netip.Addr) (float64, econ.Region, error)
}

// Resolver turns record endpoints into flow distance and region using the
// paper's per-dataset heuristics.
type Resolver struct {
	// Geo resolves both source blocks and destination prefixes.
	Geo *geoip.DB
	// Topo, when set, computes routed (path-sum) distances between the
	// endpoint cities — the Internet2 heuristic. When nil, distance is
	// the great-circle distance between the resolved coordinates (the EU
	// ISP and CDN heuristics).
	Topo *topology.Graph
	// DistanceRegions, when true, classifies regions from distance
	// thresholds (metro < 10 miles, national < 100) as the paper does for
	// the EU ISP, instead of from city/country identity.
	DistanceRegions bool
}

// Resolve maps a (src, dst) address pair to flow distance and region.
func (rv *Resolver) Resolve(src, dst netip.Addr) (float64, econ.Region, error) {
	if rv.Geo == nil {
		return 0, 0, errors.New("demandfit: resolver needs a GeoIP database")
	}
	srcRec, ok := rv.Geo.Lookup(src)
	if !ok {
		return 0, 0, fmt.Errorf("demandfit: source %v not in GeoIP database", src)
	}
	dstRec, ok := rv.Geo.Lookup(dst)
	if !ok {
		return 0, 0, fmt.Errorf("demandfit: destination %v not in GeoIP database", dst)
	}

	var distance float64
	if rv.Topo != nil && srcRec.City != dstRec.City {
		path, err := rv.Topo.ShortestPath(srcRec.City, dstRec.City)
		if err != nil {
			return 0, 0, fmt.Errorf("demandfit: routing %s->%s: %w", srcRec.City, dstRec.City, err)
		}
		distance = path.Miles
	} else {
		distance = topology.HaversineMiles(srcRec.Lat, srcRec.Lon, dstRec.Lat, dstRec.Lon)
	}

	var region econ.Region
	switch {
	case rv.DistanceRegions:
		region = cost.ClassifyByDistance(distance, 10, 100)
	case srcRec.City == dstRec.City:
		region = econ.RegionMetro
	case srcRec.Country == dstRec.Country:
		region = econ.RegionNational
	default:
		region = econ.RegionInternational
	}
	return distance, region, nil
}

// BuildFlows converts collected aggregates into fitted-ready flows:
// demand in Mbps over the capture window, resolved distance, and region.
// Aggregates that fail to resolve are reported in skipped rather than
// aborting the build (real captures always contain unroutable junk).
func BuildFlows(aggs []netflow.Aggregate, rv EndpointResolver, durationSec float64) (flows []econ.Flow, skipped int, err error) {
	return BuildFlowsParallel(context.Background(), aggs, rv, durationSec, 1)
}

// BuildFlowsParallel is BuildFlows with the per-aggregate resolution
// (GeoIP lookups and topology shortest paths, the expensive part of a
// re-fit) fanned out across workers goroutines. Each aggregate resolves
// independently and results are merged in index order, so the output is
// byte-identical to the serial build at any worker count — the property
// the online repricer's consistency test relies on.
func BuildFlowsParallel(ctx context.Context, aggs []netflow.Aggregate, rv EndpointResolver, durationSec float64, workers int) (flows []econ.Flow, skipped int, err error) {
	return BuildFlowsParallelInto(ctx, nil, aggs, rv, durationSec, workers)
}

// BuildFlowsParallelInto is BuildFlowsParallel resolving into dst's
// capacity, so a caller that re-fits the same window repeatedly (the
// online repricer's ticks) can reuse one flow buffer instead of
// reallocating it per tick. The returned slice aliases dst when dst has
// capacity for len(aggs) flows; pass nil for the allocate-per-call
// behavior. Output is byte-identical to the serial build either way.
func BuildFlowsParallelInto(ctx context.Context, dst []econ.Flow, aggs []netflow.Aggregate, rv EndpointResolver, durationSec float64, workers int) (flows []econ.Flow, skipped int, err error) {
	return BuildFlowsKnown(ctx, dst, aggs, nil, rv, durationSec, workers)
}

// Resolution is one aggregate's resolved endpoint sample; zero is "not yet".
type Resolution struct {
	Distance float64
	Region   econ.Region
	OK       bool
}

// BuildFlowsKnown is BuildFlowsParallelInto for a caller that kept
// resolutions from an earlier build: known, when not nil, has one entry
// per aggregate; an aggregate whose entry is OK takes its distance and
// region from it unasked, every other is resolved and, on success,
// recorded there. The caller vouches that an OK entry is of the same
// endpoint sample and of a resolver whose answer depends on nothing else.
func BuildFlowsKnown(ctx context.Context, dst []econ.Flow, aggs []netflow.Aggregate, known []Resolution, rv EndpointResolver, durationSec float64, workers int) (flows []econ.Flow, skipped int, err error) {
	if durationSec <= 0 {
		return nil, 0, errors.New("demandfit: capture duration must be positive")
	}
	if len(aggs) == 0 {
		return nil, 0, errors.New("demandfit: no aggregates")
	}
	if known == nil {
		known = make([]Resolution, len(aggs))
	} else if len(known) != len(aggs) {
		return nil, 0, errors.New("demandfit: one known resolution per aggregate required")
	}
	// Append-style growth: a window that gains a key per epoch must not
	// reallocate the whole buffer every epoch.
	dst = slices.Grow(dst[:0], len(aggs))[:len(aggs)]
	resolve := func(_ context.Context, src, dstAddr netip.Addr) (float64, econ.Region, error) {
		return rv.Resolve(src, dstAddr)
	}
	if cr, ok := rv.(ContextResolver); ok {
		resolve = cr.ResolveContext
	}
	// A failed resolution is a skip, not an error, so the task function
	// never fails except on cancellation. An empty ID marks a skip: the
	// collector never emits an aggregate with an empty key (unkeyed
	// records are dropped at ingest).
	resolved, err := parallel.MapInto(ctx, dst, workers,
		func(ctx context.Context, i int) (econ.Flow, error) {
			a, r := &aggs[i], &known[i]
			if !r.OK {
				var rerr error
				if r.Distance, r.Region, rerr = resolve(ctx, a.SrcAddr, a.DstAddr); rerr != nil {
					// Cancellation is a build failure, not a skip: treating it
					// as a skip would silently price a truncated flow set.
					if cerr := ctx.Err(); cerr != nil {
						return econ.Flow{}, cerr
					}
					return econ.Flow{}, nil // zero ID marks the skip
				}
				r.OK = true
			}
			demand := netflow.DemandMbps(a.Octets, durationSec)
			if demand <= 0 {
				return econ.Flow{}, nil
			}
			return econ.Flow{
				ID:       a.Key,
				Demand:   demand,
				Distance: r.Distance,
				Region:   r.Region,
			}, nil
		})
	if err != nil {
		return nil, 0, err
	}
	// Compact skips in place: the write index never passes the read index.
	n := 0
	for i := range resolved {
		if resolved[i].ID == "" {
			skipped++
			continue
		}
		resolved[n] = resolved[i]
		n++
	}
	flows = resolved[:n]
	if len(flows) == 0 {
		return nil, skipped, errors.New("demandfit: no aggregate resolved to a usable flow")
	}
	return flows, skipped, nil
}
