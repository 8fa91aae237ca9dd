package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
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

// churner feeds a synthetic repricer's window what one epoch of the
// repository benchmark's online_mixed stage delivers to its large tenant
// between two re-prices: records over keys the window already holds, and
// one key it has never seen.
type churner struct {
	w      *Window
	live   []netflow.Aggregate // the keys at the start: their samples address them again
	unused []netflow.Record    // one record per never-seen, resolvable key
	rng    *rand.Rand
	seq    uint32
	recs   []netflow.Record
}

func newChurner(tb testing.TB, rp *Repricer, sources, dests int) *churner {
	tb.Helper()
	c := &churner{w: rp.cfg.Window, rng: rand.New(rand.NewSource(7)), seq: 1 << 20}
	c.live = c.w.Aggregates()
	have := make(map[string]bool, len(c.live))
	for _, a := range c.live {
		have[a.Key] = true
	}
	for idx := 0; idx < sources*dests && len(c.unused) < 4096; idx++ {
		r := netflow.Record{
			SrcAddr: netip.AddrFrom4([4]byte{172, 16, byte(idx / dests << 4), 1}),
			DstAddr: netip.AddrFrom4([4]byte{10, byte(idx % dests >> 8), byte(idx % dests), 1}),
			Octets:  50_000, Packets: 1,
		}
		if !have[bucketName(traces.AggregateKey, r)] {
			c.unused = append(c.unused, r)
		}
	}
	return c
}

// epoch ingests existing records over live keys and one new key.
func (c *churner) epoch(tb testing.TB, existing int) {
	if len(c.unused) == 0 {
		tb.Fatal("churner ran out of never-seen keys")
	}
	flush := func() {
		c.w.Ingest(netflow.Header{SamplingInterval: 1000}, c.recs)
		c.recs = c.recs[:0]
	}
	add := func(r netflow.Record) {
		c.seq++
		r.First, r.SrcAS = c.seq, uint16(c.seq)
		if c.recs = append(c.recs, r); len(c.recs) == netflow.MaxRecordsPerPacket {
			flush()
		}
	}
	for i := 0; i < existing; i++ {
		a := &c.live[c.rng.Intn(len(c.live))]
		add(netflow.Record{SrcAddr: a.SrcAddr, DstAddr: a.DstAddr, Octets: uint32(1000 + c.rng.Intn(100_000)), Packets: 1})
	}
	add(c.unused[0])
	c.unused = c.unused[1:]
	flush()
}

// BenchmarkReprice times one whole re-price at the repository
// benchmark's two tenant sizes: the 20 000-aggregate CED/optimal/4-tier
// tenant whose pipeline duration sets price freshness — once over a
// window nothing arrived in since the last re-price, once (/churn) over
// the ≈ 700 records on live keys and one new key that 48 ms of
// online_mixed deliver — and the 200-aggregate logit/profit-weighted/
// 3-tier one that waits behind it.
func BenchmarkReprice(b *testing.B) {
	cases := []struct {
		name                 string
		sources, dests, keys int
		demand               econ.Model
		strategy             bundling.Strategy
		tiers                int
		churn                int // records over live keys between re-prices, plus one new key
	}{
		{"20k-ced-optimal-4", 64, 2048, 20000, econ.CED{Alpha: 1.1}, bundling.Optimal{}, 4, 0},
		{"20k-ced-optimal-4/churn", 64, 2048, 20000, econ.CED{Alpha: 1.1}, bundling.Optimal{}, 4, 700},
		{"200-logit-profit-weighted-3", 14, 200, 200, econ.Logit{Alpha: 1.1, S0: 0.2}, bundling.ProfitWeighted{}, 3, 0},
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
			var ch *churner
			if c.churn > 0 {
				ch = newChurner(b, rp, c.sources, c.dests)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var stages StageTimes
			var reused, pows, sorts int64
			for i := 0; i < b.N; i++ {
				if ch != nil {
					b.StopTimer()
					ch.epoch(b, c.churn)
					b.StartTimer()
				}
				snap, err := rp.Reprice(ctx)
				if err != nil {
					b.Fatal(err)
				}
				for s, d := range snap.Stages {
					stages[s] += d
				}
				reused, pows = reused+int64(snap.FitReused), pows+snap.Powers
				if snap.CostOrder == "sorted" {
					sorts++
				}
			}
			for s, d := range stages {
				b.ReportMetric(d.Seconds()*1e3/float64(b.N), Stage(s).String()+"-ms/op")
			}
			b.ReportMetric(float64(reused)/float64(b.N), "rows-reused/op")
			b.ReportMetric(float64(pows)/float64(b.N), "pow/op")
			b.ReportMetric(float64(sorts)/float64(b.N), "sorts/op")
		})
	}
}

// TestRepriceAllocBudget holds the 20k-aggregate re-price to the
// allocations it makes today (≈ 43 objects, 2.9 MB: the published
// snapshot's two quote indexes and tiers, the fit's per-flow values,
// per-stage scratch) so per-flow garbage cannot come back unnoticed —
// also when every epoch brings a new key, which must not regrow the row
// buffers or the DP's tables each time — and the window's kept merge to
// nothing at all when it writes into rows it is handed, one slice when
// it is not.
func TestRepriceAllocBudget(t *testing.T) {
	rp := syntheticRepricer(t, 1, 64, 2048, 20000, econ.CED{Alpha: 1.1}, bundling.Optimal{}, 4)
	reprice := func() {
		if _, err := rp.Reprice(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	reprice()
	reprice() // the first two each allocate one of the repricer's two row buffers
	measure := func(name string, runs int, before func()) {
		t.Helper()
		var objects, bytes uint64
		for i := 0; i < runs; i++ {
			before()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			reprice()
			runtime.ReadMemStats(&m1)
			objects, bytes = objects+m1.Mallocs-m0.Mallocs, bytes+m1.TotalAlloc-m0.TotalAlloc
		}
		objects, bytes = objects/uint64(runs), bytes/uint64(runs)
		t.Logf("%s: %d objects, %d bytes", name, objects, bytes)
		const budgetObjects, budgetBytes = 55, 7 << 19 // 3.5 MiB
		if objects > budgetObjects || (bytes > budgetBytes && !raceEnabled) {
			t.Errorf("a warm %s 20k re-price allocates %d objects and %d bytes, budget %d and %d", name, objects, bytes, budgetObjects, budgetBytes)
		}
	}
	measure("steady", 3, func() {})
	ch := newChurner(t, rp, 64, 2048)
	for i := 0; i < 2; i++ { // one growth step for each of the two row buffers
		ch.epoch(t, 700)
		reprice()
	}
	measure("churning", 8, func() { ch.epoch(t, 700) })
	w := rp.cfg.Window
	if allocs := testing.AllocsPerRun(3, func() { w.Aggregates() }); allocs > 2 {
		t.Errorf("Aggregates over an unchanged key set allocates %.0f objects, want the result alone", allocs)
	}
	rows := w.Aggregates()
	if allocs := testing.AllocsPerRun(3, func() { rows = w.AggregatesInto(rows) }); allocs > 0 {
		t.Errorf("AggregatesInto rows that fit allocates %.0f objects, want none", allocs)
	}
}
