package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"strings"
	"testing"
	"time"

	"tieredpricing/internal/bgp"
	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/traces"
)

// loadedRepricer builds a window loaded with a full euisp capture and a
// repricer over it, plus the batch collector's view of the same records.
func loadedRepricer(t *testing.T, seed int64) (*Repricer, *traces.Dataset, []netflow.Aggregate) {
	t.Helper()
	ds, err := traces.EUISP(seed)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	w := mustWindow(t, time.Hour, 4)
	ingestStreams(t, w, streams)
	c := NewCollector(traces.AggregateKey)
	ingestStreams(t, c, streams)

	rp, err := NewRepricer(Config{
		Window:      w,
		Resolver:    &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true},
		Demand:      econ.CED{Alpha: 1.1},
		Cost:        cost.Linear{Theta: 0.2},
		P0:          ds.P0,
		Strategy:    bundling.ProfitWeighted{},
		Tiers:       3,
		DurationSec: ds.DurationSec,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rp, ds, c.Aggregates()
}

// TestRepriceMatchesBatch is the tentpole consistency test: the online
// windowed re-price must produce a byte-identical tier table to the
// batch pipeline run over the same window of records.
func TestRepriceMatchesBatch(t *testing.T) {
	rp, ds, batchAggs := loadedRepricer(t, 71)

	snap, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	online, err := snap.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the batch pipeline on the identical record set.
	rv := &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true}
	flows, _, err := demandfit.BuildFlows(batchAggs, rv, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}
	batchTable, err := BatchTable(flows, econ.CED{Alpha: 1.1}, cost.Linear{Theta: 0.2},
		ds.P0, bundling.ProfitWeighted{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchTable.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(online, batch) {
		t.Fatalf("online table diverges from batch pipeline:\nonline: %s\nbatch:  %s", online, batch)
	}
	if snap.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", snap.Epoch)
	}
	if rp.Current() != snap {
		t.Error("Current() did not return the published snapshot")
	}
}

// TestQuoteMatchesTiers: every window bucket quotes the price of the
// tier it was bundled into, from the exact-match path.
func TestQuoteMatchesTiers(t *testing.T) {
	rp, _, batchAggs := loadedRepricer(t, 72)
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	priceOf := make(map[int]float64)
	for _, tq := range snap.Table.Tiers {
		priceOf[tq.Tier] = tq.Price
	}
	for _, a := range batchAggs {
		q, ok := snap.Quote(a.SrcAddr, a.DstAddr)
		if !ok {
			t.Fatalf("no quote for bucket %s", a.Key)
		}
		if q.Source != SourceWindow {
			t.Fatalf("bucket %s quoted from %v, want window", a.Key, q.Source)
		}
		if q.Price != priceOf[q.Tier] {
			t.Fatalf("bucket %s: price %v != tier %d price %v", a.Key, q.Price, q.Tier, priceOf[q.Tier])
		}
	}
}

// TestQuoteFallsBackToRIB: a source the window never saw still gets a
// quote when the destination matches a tier-tagged route.
func TestQuoteFallsBackToRIB(t *testing.T) {
	rp, _, batchAggs := loadedRepricer(t, 73)
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	unknownSrc := netip.MustParseAddr("203.0.113.7") // TEST-NET, never a PoP
	q, ok := snap.Quote(unknownSrc, batchAggs[0].DstAddr)
	if !ok {
		t.Fatal("no RIB fallback quote for known destination")
	}
	if q.Source != SourceRIB {
		t.Errorf("source = %v, want rib", q.Source)
	}
	if q.Price != snap.Table.Tiers[q.Tier].Price {
		t.Errorf("RIB price %v != tier %d price %v", q.Price, q.Tier, snap.Table.Tiers[q.Tier].Price)
	}
	if _, ok := snap.Quote(unknownSrc, netip.MustParseAddr("198.51.100.9")); ok {
		t.Error("quote for a destination outside every tier route")
	}
}

// TestRouteIndexMatchesAnnouncedRoutes: the snapshot's route fallback
// answers what the §5.1 wire tells a customer. Each destination /24's
// tier is derived from the window quotes alone (cheapest price, ties to
// the lower index), announced through a Speaker, and read off a
// Customer's RIB; a quote from a source no bucket holds must answer
// that route's tier from the RIB source, and miss where no route is.
func TestRouteIndexMatchesAnnouncedRoutes(t *testing.T) {
	const dests = 96
	rp := syntheticRepricer(t, 5, 8, dests, 200, econ.CED{Alpha: 1.1}, bundling.Optimal{}, 4)
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, len(snap.Table.Tiers))
	for i, tq := range snap.Table.Tiers {
		prices[i] = tq.Price
	}
	tierOf := map[netip.Prefix]int{}
	var prefixes []netip.Prefix
	for _, a := range rp.cfg.Window.Aggregates() {
		q, ok := snap.Quote(a.SrcAddr, a.DstAddr)
		if !ok || q.Source != SourceWindow {
			continue
		}
		pfx := netip.PrefixFrom(a.DstAddr, netflow.DstPrefixBits).Masked()
		prev, seen := tierOf[pfx]
		if !seen {
			prefixes = append(prefixes, pfx)
		}
		if !seen || prices[q.Tier] < prices[prev] || (prices[q.Tier] == prices[prev] && q.Tier < prev) {
			tierOf[pfx] = q.Tier
		}
	}

	speaker, err := bgp.NewSpeaker("127.0.0.1:0", bgp.Open{AS: 64512, HoldTime: 180, ID: 1}, netip.MustParseAddr("192.0.2.254"))
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()
	if err := speaker.Reprice(prefixes, func(p netip.Prefix) int { return tierOf[p] }, prices); err != nil {
		t.Fatal(err)
	}
	customer, err := bgp.DialCustomer(speaker.Addr(), bgp.Open{AS: 64513, HoldTime: 180, ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer customer.Close()
	if n := customer.RIB().Len(); n != len(prefixes) || n == 0 {
		t.Fatalf("customer holds %d routes, want the %d announced", n, len(prefixes))
	}

	stranger := netip.MustParseAddr("192.0.2.1")
	var routed, unrouted int
	for j := 0; j < dests+8; j++ {
		dst := netip.AddrFrom4([4]byte{10, byte(j >> 8), byte(j), 77})
		q, ok := snap.Quote(stranger, dst)
		route, routedHere := customer.RIB().Lookup(dst)
		if !routedHere {
			unrouted++
			if ok {
				t.Fatalf("%v has no route but quotes %+v", dst, q)
			}
			continue
		}
		routed++
		want := Quote{Tier: int(route.Tier.Tier), Price: prices[route.Tier.Tier], Source: SourceRIB}
		if !ok || q != want {
			t.Fatalf("%v: quote %+v ok=%v, route says %+v", dst, q, ok, want)
		}
	}
	if routed != len(prefixes) || unrouted == 0 {
		t.Fatalf("probed %d routed and %d unrouted /24s, want all %d routed and some not", routed, unrouted, len(prefixes))
	}
}

// TestQuoteZeroAllocs pins the hot-path property the serving layer's
// latency depends on: a quote performs no allocations, whether the window
// answers it, the route fallback does or nothing does.
func TestQuoteZeroAllocs(t *testing.T) {
	rp, _, batchAggs := loadedRepricer(t, 74)
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	src, dst := batchAggs[0].SrcAddr, batchAggs[0].DstAddr
	var sink Quote
	allocs := testing.AllocsPerRun(1000, func() {
		q, ok := snap.Quote(src, dst)
		if !ok {
			t.Fatal("quote miss")
		}
		sink = q
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Quote allocates %v times per call, want 0", allocs)
	}
	stranger := netip.MustParseAddr("192.0.2.1")
	for _, probe := range [][2]netip.Addr{{stranger, dst}, {stranger, stranger}} {
		if allocs := testing.AllocsPerRun(1000, func() { sink, _ = snap.Quote(probe[0], probe[1]) }); allocs != 0 {
			t.Fatalf("Quote(%v, %v) allocates %v times per call, want 0", probe[0], probe[1], allocs)
		}
	}
}

func TestRepriceEmptyWindowKeepsSnapshot(t *testing.T) {
	ds, err := traces.EUISP(75)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWindow(t, time.Minute, 2)
	rp, err := NewRepricer(Config{
		Window:   w,
		Resolver: &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true},
		Demand:   econ.CED{Alpha: 1.1},
		Cost:     cost.Linear{Theta: 0.2},
		P0:       ds.P0,
		Strategy: bundling.ProfitWeighted{},
		Tiers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Reprice(context.Background()); !errors.Is(err, ErrEmptyWindow) {
		t.Fatalf("err = %v, want ErrEmptyWindow", err)
	}
	if rp.Current() != nil {
		t.Fatal("empty reprice published a snapshot")
	}

	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 76})
	if err != nil {
		t.Fatal(err)
	}
	ingestStreams(t, w, streams)
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A later failure (ingest gap emptied the window) must keep the last
	// good snapshot current.
	w.now = func() time.Time { return time.Now().Add(time.Hour) }
	if _, err := rp.Reprice(context.Background()); !errors.Is(err, ErrEmptyWindow) {
		t.Fatalf("err = %v, want ErrEmptyWindow after expiry", err)
	}
	if rp.Current() != snap {
		t.Error("failed reprice displaced the previous snapshot")
	}
}

func TestNewRepricerValidation(t *testing.T) {
	ds, err := traces.EUISP(77)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWindow(t, time.Minute, 2)
	good := Config{
		Window:   w,
		Resolver: &demandfit.Resolver{Geo: ds.Geo},
		Demand:   econ.CED{Alpha: 1.1},
		Cost:     cost.Linear{Theta: 0.2},
		P0:       ds.P0,
		Strategy: bundling.ProfitWeighted{},
		Tiers:    3,
	}
	if _, err := NewRepricer(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Window = nil },
		func(c *Config) { c.Resolver = nil },
		func(c *Config) { c.Demand = nil },
		func(c *Config) { c.Cost = nil },
		func(c *Config) { c.P0 = 0 },
		func(c *Config) { c.Strategy = nil },
		func(c *Config) { c.Tiers = 0 },
		func(c *Config) { c.P0 = math.NaN() },
		func(c *Config) { c.P0 = math.Inf(1) },
		func(c *Config) { c.DurationSec = -1 },
		func(c *Config) { c.DurationSec = math.NaN() },
		func(c *Config) { c.DurationSec = math.Inf(1) },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := NewRepricer(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// thirdsResolver fails every destination whose third octet is a multiple
// of three — a deterministic stand-in for the unroutable junk a real
// capture carries, so a re-price skips aggregates scattered through the
// key order.
type thirdsResolver struct{ inner demandfit.EndpointResolver }

func (r thirdsResolver) Resolve(src, dst netip.Addr) (float64, econ.Region, error) {
	if dst.As4()[2]%3 == 0 {
		return 0, 0, errors.New("unroutable")
	}
	return r.inner.Resolve(src, dst)
}

// TestRepriceWithSkipsKeysSurvivors: when resolution drops aggregates,
// the flows are a strict subsequence of the window's aggregates, and the
// snapshot must still pair every surviving flow with its own aggregate:
// each survivor quotes from the window at the tier the batch pipeline
// bundles it into, each skipped bucket does not, and the stage clock
// accounts for the whole pipeline.
func TestRepriceWithSkipsKeysSurvivors(t *testing.T) {
	rp, ds, batchAggs := loadedRepricer(t, 78)
	rv := thirdsResolver{&demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true}}
	cfg := rp.cfg
	cfg.Resolver = rv
	if err := rp.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	flows, skipped, err := demandfit.BuildFlows(batchAggs, rv, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 || len(flows) == 0 {
		t.Fatalf("fixture skips %d of %d aggregates; the test needs some of each", skipped, len(batchAggs))
	}
	if snap.Skipped != skipped || snap.Table.Flows != len(flows) {
		t.Fatalf("snapshot priced %d flows and skipped %d, batch priced %d and skipped %d",
			snap.Table.Flows, snap.Skipped, len(flows), skipped)
	}
	market, err := core.NewMarket(flows, cfg.Demand, cfg.Cost, cfg.P0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := market.Run(cfg.Strategy, cfg.Tiers)
	if err != nil {
		t.Fatal(err)
	}
	tierOf := make(map[string]int, len(flows))
	for tier, block := range out.Partition {
		for _, i := range block {
			tierOf[flows[i].ID] = tier
		}
	}
	for _, a := range batchAggs {
		q, ok := snap.Quote(a.SrcAddr, a.DstAddr)
		tier, survived := tierOf[a.Key]
		switch {
		case survived && (!ok || q.Source != SourceWindow || q.Tier != tier || q.Price != out.Prices[tier]):
			t.Fatalf("bucket %s: quote %+v ok=%v, want tier %d at %v from the window",
				a.Key, q, ok, tier, out.Prices[tier])
		case !survived && ok && q.Source == SourceWindow:
			t.Fatalf("skipped bucket %s quotes from the window: %+v", a.Key, q)
		}
	}

	var staged time.Duration
	for s := Stage(0); s < NumStages; s++ {
		if snap.Stages[s] <= 0 {
			t.Errorf("stage %v recorded %v, want a positive wall time", s, snap.Stages[s])
		}
		staged += snap.Stages[s]
	}
	if staged > time.Minute {
		t.Errorf("stages sum to %v for a sub-second re-price", staged)
	}
}

// TestBuildSnapshotRejectsUnpairedFlow: a flow whose ID matches no
// aggregate at or after its predecessor's — a foreign ID, or flows out
// of aggregate order — is an error, never a quote key borrowed from a
// neighbouring aggregate.
func TestBuildSnapshotRejectsUnpairedFlow(t *testing.T) {
	rp := craftedRepricer(t)
	aggs := []netflow.Aggregate{
		{Key: "a", SrcAddr: netip.MustParseAddr("10.0.0.1"), DstAddr: netip.MustParseAddr("10.1.0.1")},
		{Key: "b", SrcAddr: netip.MustParseAddr("10.0.16.1"), DstAddr: netip.MustParseAddr("10.1.1.1")},
		{Key: "c", SrcAddr: netip.MustParseAddr("10.0.32.1"), DstAddr: netip.MustParseAddr("10.1.2.1")},
	}
	for _, tc := range []struct {
		ids     []string
		missing string
	}{
		{[]string{"a", "x", "c"}, "x"},
		{[]string{"b", "a"}, "a"},
		{[]string{"a", "c", "c"}, "c"},
	} {
		flows := make([]econ.Flow, len(tc.ids))
		block := make([]int, len(tc.ids))
		for i, id := range tc.ids {
			flows[i] = econ.Flow{ID: id, Demand: 100, Distance: 50, Region: econ.RegionNational}
			block[i] = i
		}
		out := core.Outcome{Strategy: "crafted", Bundles: 1, Partition: [][]int{block},
			Prices: []float64{10}, Profit: 1, Capture: math.NaN()}
		_, err := rp.buildSnapshot(flows, 0, out, aggs)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("flow %q has no source aggregate", tc.missing)) {
			t.Errorf("flows %v: err = %v, want flow %q reported without an aggregate", tc.ids, err, tc.missing)
		}
	}
	// The subsequence that does pair builds, and keys each flow by its
	// own aggregate.
	flows := []econ.Flow{{ID: "a", Demand: 1}, {ID: "c", Demand: 1}}
	out := core.Outcome{Strategy: "crafted", Bundles: 2, Partition: [][]int{{1}, {0}},
		Prices: []float64{10, 20}, Profit: 1, Capture: math.NaN()}
	snap, err := rp.buildSnapshot(flows, 1, out, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := snap.Quote(aggs[2].SrcAddr, aggs[2].DstAddr); !ok || q.Tier != 0 || q.Source != SourceWindow {
		t.Errorf("flow c quotes %+v ok=%v, want tier 0 from the window", q, ok)
	}
	if q, ok := snap.Quote(aggs[1].SrcAddr, aggs[1].DstAddr); ok && q.Source == SourceWindow {
		t.Errorf("skipped aggregate b quotes from the window: %+v", q)
	}
}
