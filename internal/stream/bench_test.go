package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/geoip"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/traces"
)

// syntheticRepricer builds a repricer over a window preloaded with keys
// aggregates drawn from sources PoP /20s × dests destination /24s, every
// block located in a GeoIP database so every aggregate resolves — the
// shape of the repository benchmark's tenants (bench/gen), rebuilt here
// because the root module cannot import bench/.
func syntheticRepricer(tb testing.TB, seed int64, sources, dests, keys int,
	demand econ.Model, strategy bundling.Strategy, tiers int) *Repricer {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	addr := func(v uint32) netip.Addr {
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	geo := new(geoip.DB)
	locate := func(kind string, i int, base uint32, bits int) {
		if err := geo.Insert(geoip.Record{
			Prefix:  netip.PrefixFrom(addr(base), bits),
			City:    fmt.Sprintf("%s%d", kind, i),
			Country: []string{"NL", "DE", "BE", "FR"}[rng.Intn(4)],
			Lat:     36 + 24*rng.Float64(),
			Lon:     -10 + 40*rng.Float64(),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < sources; i++ {
		locate("pop", i, 172<<24|16<<16|uint32(i)<<12, 20)
	}
	for j := 0; j < dests; j++ {
		locate("dst", j, 10<<24|uint32(j)<<8, 24)
	}
	w, err := NewWindow(traces.AggregateKey, time.Minute, 10)
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]netflow.Record, 0, netflow.MaxRecordsPerPacket)
	for n, idx := range rng.Perm(sources * dests)[:keys] {
		// Heavy-tailed volumes, so the tiers are not degenerate.
		octets := math.Min(math.Max(1e5*math.Exp(1.2*rng.NormFloat64()), 1e3), 3e9)
		recs = append(recs, netflow.Record{
			SrcAddr: addr(172<<24 | 16<<16 | uint32(idx/dests)<<12 | 1 + uint32(rng.Intn(4000))),
			DstAddr: addr(10<<24 | uint32(idx%dests)<<8 | 1 + uint32(rng.Intn(250))),
			Octets:  uint32(octets),
			Packets: 1,
			SrcAS:   uint16(n),
			First:   uint32(n),
		})
		if len(recs) == cap(recs) || n == keys-1 {
			w.Ingest(netflow.Header{SamplingInterval: 1000}, recs)
			recs = recs[:0]
		}
	}
	rp, err := NewRepricer(Config{
		Window:      w,
		Resolver:    &demandfit.Resolver{Geo: geo},
		Demand:      demand,
		Cost:        cost.Linear{Theta: 0.2},
		P0:          20,
		Strategy:    strategy,
		Tiers:       tiers,
		DurationSec: 86400,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rp
}

// BenchmarkReprice times one whole re-price at the repository
// benchmark's two tenant sizes: the 20 000-aggregate CED/optimal/4-tier
// tenant whose pipeline duration sets price freshness, and the
// 200-aggregate logit/profit-weighted/3-tier one that waits behind it.
func BenchmarkReprice(b *testing.B) {
	cases := []struct {
		name                 string
		sources, dests, keys int
		demand               econ.Model
		strategy             bundling.Strategy
		tiers                int
	}{
		{"20k-ced-optimal-4", 64, 2048, 20000, econ.CED{Alpha: 1.1}, bundling.Optimal{}, 4},
		{"200-logit-profit-weighted-3", 14, 200, 200, econ.Logit{Alpha: 1.1, S0: 0.2}, bundling.ProfitWeighted{}, 3},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rp := syntheticRepricer(b, 1, c.sources, c.dests, c.keys, c.demand, c.strategy, c.tiers)
			ctx := context.Background()
			if snap, err := rp.Reprice(ctx); err != nil {
				b.Fatal(err)
			} else if snap.Table.Flows != c.keys {
				b.Fatalf("priced %d flows of %d", snap.Table.Flows, c.keys)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var stages StageTimes
			for i := 0; i < b.N; i++ {
				snap, err := rp.Reprice(ctx)
				if err != nil {
					b.Fatal(err)
				}
				for s, d := range snap.Stages {
					stages[s] += d
				}
			}
			for s, d := range stages {
				b.ReportMetric(d.Seconds()*1e3/float64(b.N), Stage(s).String()+"-ms/op")
			}
		})
	}
}

// TestRepriceAllocBudget holds the 20k-aggregate re-price to the
// allocations it makes today (≈ 2 250: the published snapshot's own maps
// and routes, per-stage scratch) so per-flow garbage cannot come back
// unnoticed, and the window's kept merge to one: the slice it returns.
func TestRepriceAllocBudget(t *testing.T) {
	rp := syntheticRepricer(t, 1, 64, 2048, 20000, econ.CED{Alpha: 1.1}, bundling.Optimal{}, 4)
	reprice := func() {
		if _, err := rp.Reprice(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	reprice()
	if allocs := testing.AllocsPerRun(3, reprice); allocs > 2400 {
		t.Errorf("a warm 20k re-price allocates %.0f objects, budget 2400", allocs)
	}
	w := rp.cfg.Window
	if allocs := testing.AllocsPerRun(3, func() { w.Aggregates() }); allocs > 2 {
		t.Errorf("Aggregates over an unchanged key set allocates %.0f objects, want the result alone", allocs)
	}
}
