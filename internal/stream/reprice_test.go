package stream

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
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
	c := netflow.NewCollector(traces.AggregateKey)
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

// TestQuoteZeroAllocs pins the hot-path property the serving layer's
// latency depends on: an exact-match quote performs no allocations.
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
		func(c *Config) { c.DurationSec = -1 },
		func(c *Config) { c.SrcMaskBits = 40 },
		func(c *Config) { c.DstMaskBits = -2 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := NewRepricer(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
