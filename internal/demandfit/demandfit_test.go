package demandfit

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/geoip"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/topology"
)

func TestResolverErrors(t *testing.T) {
	rv := &Resolver{}
	if _, _, err := rv.Resolve(netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("2.2.2.2")); err == nil {
		t.Error("expected error for missing GeoIP DB")
	}
	db := &geoip.DB{}
	if err := db.Insert(geoip.Record{
		Prefix: netip.MustParsePrefix("10.0.0.0/24"), City: "A", Country: "X",
	}); err != nil {
		t.Fatal(err)
	}
	rv = &Resolver{Geo: db}
	if _, _, err := rv.Resolve(netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("10.0.0.1")); err == nil {
		t.Error("expected error for unresolved source")
	}
	if _, _, err := rv.Resolve(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("1.1.1.1")); err == nil {
		t.Error("expected error for unresolved destination")
	}
}

func TestResolverRoutedDistance(t *testing.T) {
	// With a topology, distance must be the routed path sum, not the
	// great-circle distance.
	g := topology.Internet2()
	db := &geoip.DB{}
	if err := db.Insert(geoip.Record{
		Prefix: netip.MustParsePrefix("10.0.0.0/24"),
		City:   "Seattle", Country: "US", Lat: 47.61, Lon: -122.33,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(geoip.Record{
		Prefix: netip.MustParsePrefix("10.0.1.0/24"),
		City:   "New York", Country: "US", Lat: 40.71, Lon: -74.01,
	}); err != nil {
		t.Fatal(err)
	}
	routed := &Resolver{Geo: db, Topo: g}
	dRouted, region, err := routed.Resolve(
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.1"))
	if err != nil {
		t.Fatal(err)
	}
	if region != econ.RegionNational {
		t.Errorf("region = %v, want national", region)
	}
	geo := &Resolver{Geo: db}
	dGeo, _, err := geo.Resolve(
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.1"))
	if err != nil {
		t.Fatal(err)
	}
	if !(dRouted > dGeo+100) {
		t.Errorf("routed %v should exceed great-circle %v", dRouted, dGeo)
	}
}

func TestBuildFlowsSkipsUnresolved(t *testing.T) {
	db := &geoip.DB{}
	if err := db.Insert(geoip.Record{
		Prefix: netip.MustParsePrefix("10.0.0.0/16"), City: "A", Country: "X", Lat: 1, Lon: 1,
	}); err != nil {
		t.Fatal(err)
	}
	aggs := []netflow.Aggregate{
		{Key: "good", SrcAddr: netip.MustParseAddr("10.0.0.1"),
			DstAddr: netip.MustParseAddr("10.0.1.1"), Octets: 1e9},
		{Key: "bad", SrcAddr: netip.MustParseAddr("192.168.0.1"),
			DstAddr: netip.MustParseAddr("10.0.1.1"), Octets: 1e9},
	}
	flows, skipped, err := BuildFlows(aggs, &Resolver{Geo: db}, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || skipped != 1 {
		t.Fatalf("flows=%d skipped=%d, want 1/1", len(flows), skipped)
	}
}

func TestBuildFlowsErrors(t *testing.T) {
	rv := &Resolver{Geo: &geoip.DB{}}
	if _, _, err := BuildFlows(nil, rv, 3600); err == nil {
		t.Error("expected error for no aggregates")
	}
	aggs := []netflow.Aggregate{{Key: "x"}}
	if _, _, err := BuildFlows(aggs, rv, 0); err == nil {
		t.Error("expected error for zero duration")
	}
	if _, _, err := BuildFlows(aggs, rv, 3600); err == nil {
		t.Error("expected error when nothing resolves")
	}
}

// hangingResolver implements ContextResolver by blocking until the
// caller's context is cancelled — the shape of a dead network-backed
// lookup. The plain Resolve path would block forever.
type hangingResolver struct{}

func (hangingResolver) Resolve(src, dst netip.Addr) (float64, econ.Region, error) {
	select {}
}

func (hangingResolver) ResolveContext(ctx context.Context, src, dst netip.Addr) (float64, econ.Region, error) {
	<-ctx.Done()
	return 0, 0, ctx.Err()
}

// TestBuildFlowsContextResolverCancellation: when the resolver
// implements ContextResolver, cancelling the build context must unwedge
// hung resolves and fail the build — not report the hung aggregates as
// skips and price a truncated flow set.
func TestBuildFlowsContextResolverCancellation(t *testing.T) {
	aggs := []netflow.Aggregate{
		{Key: "a", SrcAddr: netip.MustParseAddr("10.0.0.1"),
			DstAddr: netip.MustParseAddr("10.1.0.1"), Octets: 1e9},
		{Key: "b", SrcAddr: netip.MustParseAddr("10.16.0.1"),
			DstAddr: netip.MustParseAddr("10.1.0.2"), Octets: 1e9},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := BuildFlowsParallelInto(ctx, nil, aggs, hangingResolver{}, 3600, 2)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled build with hung resolves reported success")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the context deadline", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("build did not return after its context was cancelled")
	}
}
