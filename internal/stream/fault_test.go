package stream

// Regression tests for the live-path bugs the fault-injection harness
// flushed out of the serving loop: quote keys outside the IPv4 bucket
// widths, tier-index tie-breaking on multi-bucket destinations, and
// snapshot retention across every failure class while quotes are being
// served concurrently. (The bounded final drain is the daemon's now:
// cmd/tierd's TestRunDrain.)

import (
	"context"
	"errors"
	"math"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/traces"
)

// fixedResolver resolves every pair to the same distance and region —
// enough for tests that drive buildSnapshot with a crafted outcome.
type fixedResolver struct{}

func (fixedResolver) Resolve(src, dst netip.Addr) (float64, econ.Region, error) {
	return 50, econ.RegionNational, nil
}

// craftedRepricer builds a repricer whose window is irrelevant (the
// tests below call buildSnapshot directly with hand-built inputs).
func craftedRepricer(t *testing.T) *Repricer {
	t.Helper()
	rp, err := NewRepricer(Config{
		Window:   mustWindow(t, time.Hour, 4),
		Resolver: fixedResolver{},
		Demand:   econ.CED{Alpha: 1.1},
		Cost:     cost.Linear{Theta: 0.2},
		P0:       30,
		Strategy: bundling.ProfitWeighted{},
		Tiers:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// crafted builds a snapshot from explicit aggregates, a one-flow-per-
// aggregate partition, and a price vector.
func crafted(t *testing.T, rp *Repricer, aggs []netflow.Aggregate, partition [][]int, prices []float64) *Snapshot {
	t.Helper()
	flows := make([]econ.Flow, len(aggs))
	for i, a := range aggs {
		flows[i] = econ.Flow{ID: a.Key, Demand: 100, Distance: 50, Region: econ.RegionNational}
	}
	out := core.Outcome{
		Strategy:  "crafted",
		Bundles:   len(partition),
		Partition: partition,
		Prices:    prices,
		Profit:    1,
		Capture:   math.NaN(),
	}
	snap, err := rp.buildSnapshot(flows, 0, out, aggs)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestQuoteMasksPerAddressFamily: quotes key on the IPv4 bucket widths,
// a 4-in-6 mapped pair unmaps onto its IPv4 bucket, and what no bucket
// can hold misses — an IPv6 pair (no v5 export carries one) and an
// invalid endpoint. A non-IPv4 sample never reaches the index: the build
// refuses it as it refuses an invalid one.
func TestQuoteMasksPerAddressFamily(t *testing.T) {
	rp := craftedRepricer(t)
	aggs := []netflow.Aggregate{
		{Key: "v4", SrcAddr: netip.MustParseAddr("10.0.0.1"), DstAddr: netip.MustParseAddr("10.1.0.1")},
	}
	snap := crafted(t, rp, aggs, [][]int{{0}}, []float64{10})

	// Any address inside the source /20 and the destination /24 quotes
	// the bucket, and a 4-in-6 mapped pair unmaps onto it.
	q4, ok := snap.Quote(netip.MustParseAddr("10.0.15.9"), netip.MustParseAddr("10.1.0.250"))
	if !ok || q4.Tier != 0 || q4.Source != SourceWindow {
		t.Fatalf("v4 quote = %+v ok=%v, want the v4 bucket", q4, ok)
	}
	qm, ok := snap.Quote(netip.MustParseAddr("::ffff:10.0.0.9"), netip.MustParseAddr("::ffff:10.1.0.9"))
	if !ok || qm.Tier != 0 || qm.Source != SourceWindow {
		t.Fatalf("4-in-6 quote = %+v ok=%v, want the v4 bucket", qm, ok)
	}
	if q, ok := snap.Quote(netip.MustParseAddr("2001:db8:a:1::99"), netip.MustParseAddr("2001:db8:100:1::42")); ok {
		t.Fatalf("IPv6 pair got a quote %+v, want a miss", q)
	}
	// Invalid endpoints can never match.
	if _, ok := snap.Quote(netip.Addr{}, netip.MustParseAddr("10.1.0.1")); ok {
		t.Fatal("invalid source got a quote")
	}
	if _, ok := snap.Quote(netip.MustParseAddr("10.0.0.1"), netip.Addr{}); ok {
		t.Fatal("invalid destination got a quote")
	}

	flows := []econ.Flow{{ID: "bad", Demand: 100, Distance: 50, Region: econ.RegionNational}}
	out := core.Outcome{Strategy: "crafted", Bundles: 1, Partition: [][]int{{0}}, Prices: []float64{10}, Capture: math.NaN()}
	for _, bad := range []netflow.Aggregate{
		{Key: "bad", SrcAddr: netip.MustParseAddr("2001:db8:a:1::1"), DstAddr: netip.MustParseAddr("10.1.0.1")},
		{Key: "bad", SrcAddr: netip.MustParseAddr("10.0.0.1"), DstAddr: netip.MustParseAddr("2001:db8:100:1::1")},
		{Key: "bad", SrcAddr: netip.MustParseAddr("10.0.0.1")},
	} {
		if _, err := craftedRepricer(t).buildSnapshot(flows, 0, out, []netflow.Aggregate{bad}); err == nil {
			t.Errorf("sample %v>%v built a snapshot", bad.SrcAddr, bad.DstAddr)
		}
	}
}

// TestRIBTieBreakPrefersCheaperPrice is the regression test for the
// multi-bucket destination tie-break: when two source PoPs reach the
// same destination prefix in different tiers, the advertised route used
// to keep the lower *tier index*, which is only the cheaper tier when
// prices happen to be sorted. Nothing guarantees that — the route must
// compare prices, with index as the deterministic tie-break.
func TestRIBTieBreakPrefersCheaperPrice(t *testing.T) {
	rp := craftedRepricer(t)
	// Two buckets (distinct src /20s) sharing one destination /24.
	aggs := []netflow.Aggregate{
		{Key: "popA", SrcAddr: netip.MustParseAddr("10.0.0.1"), DstAddr: netip.MustParseAddr("10.9.0.1")},
		{Key: "popB", SrcAddr: netip.MustParseAddr("10.16.0.1"), DstAddr: netip.MustParseAddr("10.9.0.2")},
	}
	unknownSrc := netip.MustParseAddr("203.0.113.7") // TEST-NET, never a PoP

	// Non-monotone price vector: the higher-index tier is cheaper.
	snap := crafted(t, rp, aggs, [][]int{{0}, {1}}, []float64{5, 2})
	q, ok := snap.Quote(unknownSrc, netip.MustParseAddr("10.9.0.200"))
	if !ok || q.Source != SourceRIB {
		t.Fatalf("quote = %+v ok=%v, want a RIB fallback hit", q, ok)
	}
	if q.Tier != 1 || q.Price != 2 {
		t.Fatalf("RIB advertises tier %d at %v, want the cheaper tier 1 at 2", q.Tier, q.Price)
	}

	// Equal prices: ties break toward the lower index, deterministically.
	snap = crafted(t, rp, aggs, [][]int{{0}, {1}}, []float64{2, 2})
	q, ok = snap.Quote(unknownSrc, netip.MustParseAddr("10.9.0.200"))
	if !ok || q.Tier != 0 {
		t.Fatalf("equal-price tie quote = %+v ok=%v, want tier 0", q, ok)
	}
}

// toggleCost injects a fit-path failure on demand.
type toggleCost struct {
	inner cost.Model
	fail  atomic.Bool
}

func (c *toggleCost) Name() string { return c.inner.Name() }

func (c *toggleCost) RelativeCosts(flows []econ.Flow) ([]float64, error) {
	if c.fail.Load() {
		return nil, errors.New("injected cost-model failure")
	}
	return c.inner.RelativeCosts(flows)
}

// TestSnapshotRetentionUnderConcurrentQuoting drives the repricer
// through every failure class — resolver outage, fit error, empty
// window — while quote readers hammer Current() concurrently (run under
// -race by ci.sh). The last good snapshot must stay current through
// every failure, epochs must be strictly monotone across successes, and
// the consecutive-failure counter must track the failure run.
func TestSnapshotRetentionUnderConcurrentQuoting(t *testing.T) {
	ds, err := traces.EUISP(84)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	w := mustWindow(t, time.Hour, 4)
	ingestStreams(t, w, streams)
	c := NewCollector(traces.AggregateKey)
	ingestStreams(t, c, streams)
	batchAggs := c.Aggregates()

	rv := faultinject.NewResolver(faultinject.New(86), &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true})
	costModel := &toggleCost{inner: cost.Linear{Theta: 0.2}}
	rp, err := NewRepricer(Config{
		Window:      w,
		Resolver:    rv,
		Demand:      econ.CED{Alpha: 1.1},
		Cost:        costModel,
		P0:          ds.P0,
		Strategy:    bundling.ProfitWeighted{},
		Tiers:       3,
		DurationSec: ds.DurationSec,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}

	first, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Quote readers: every observed snapshot must answer every bucket,
	// and the epoch must never move backwards.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := rp.Current()
				if snap == nil {
					t.Error("Current() went nil after the first snapshot")
					return
				}
				if snap.Epoch < lastEpoch {
					t.Errorf("epoch moved backwards: %d after %d", snap.Epoch, lastEpoch)
					return
				}
				lastEpoch = snap.Epoch
				a := batchAggs[int(lastEpoch)%len(batchAggs)]
				if _, ok := snap.Quote(a.SrcAddr, a.DstAddr); !ok {
					t.Errorf("epoch %d snapshot lost bucket %s", snap.Epoch, a.Key)
					return
				}
			}
		}()
	}

	ctx := context.Background()
	assertFailureRetains := func(wantFailures int64) {
		t.Helper()
		if _, err := rp.Reprice(ctx); err == nil {
			t.Fatal("injected failure repriced successfully")
		}
		if rp.Current() != first {
			t.Fatal("failed reprice displaced the serving snapshot")
		}
		if got := rp.ConsecutiveFailures(); got != wantFailures {
			t.Fatalf("consecutive failures = %d, want %d", got, wantFailures)
		}
	}

	// Resolver outage: every resolve refuses, the build yields no flows.
	rv.SetOutage(true)
	assertFailureRetains(1)
	assertFailureRetains(2)
	rv.SetOutage(false)

	// Fit error: resolution succeeds, the cost model blows up.
	costModel.fail.Store(true)
	assertFailureRetains(3)
	costModel.fail.Store(false)

	// Recovery: a clean reprice publishes the next epoch and resets the
	// failure run.
	recovered, err := rp.Reprice(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Epoch != first.Epoch+1 {
		t.Fatalf("recovered epoch = %d, want %d", recovered.Epoch, first.Epoch+1)
	}
	if rp.ConsecutiveFailures() != 0 {
		t.Fatalf("consecutive failures = %d after recovery, want 0", rp.ConsecutiveFailures())
	}

	// Empty window (ingest gap): the window expires, the recovered
	// snapshot stays current and the gap counts as a failure.
	w.now = func() time.Time { return time.Now().Add(24 * time.Hour) }
	if _, err := rp.Reprice(ctx); !errors.Is(err, ErrEmptyWindow) {
		t.Fatalf("err = %v, want ErrEmptyWindow", err)
	}
	if rp.Current() != recovered {
		t.Fatal("empty-window failure displaced the serving snapshot")
	}
	if rp.ConsecutiveFailures() != 1 {
		t.Fatalf("consecutive failures = %d after ingest gap, want 1", rp.ConsecutiveFailures())
	}

	close(stop)
	wg.Wait()
}
