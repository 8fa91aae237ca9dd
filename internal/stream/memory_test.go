package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/geoip"
	"tieredpricing/internal/netflow"
)

// memRig drives one repricer that is kept across a schedule beside a
// fresh NewRepricer per step over the same window, and requires that
// nothing a reader can see tells them apart. Bucket key k lives at source
// PoP k%16 and destination /24 number k/16; the /24s whose number is 7
// mod 8 are missing from the GeoIP database, so their rows never resolve,
// and the first sixteen hosts of every other /24 are located far from the
// rest of it, so a bucket whose endpoint sample moves there moves.
type memRig struct {
	t      *testing.T
	now    time.Time
	w      *Window
	cfg    Config
	kept   *Repricer
	seq    uint32
	keys   map[int]bool   // every key ever ingested: the quote probes
	seen   RepriceTrace   // field-wise maximum over the kept repricer's traces
	orders map[string]int // the kept repricer's cost-order outcomes
	steps  int
}

func memAddrs(key int, host byte) (src, dst netip.Addr) {
	return netip.AddrFrom4([4]byte{172, 16, byte(key%16) << 4, host}),
		netip.AddrFrom4([4]byte{10, byte(key / 4096), byte(key / 16), host})
}

func newMemRig(t *testing.T) *memRig {
	t.Helper()
	r := &memRig{t: t, now: time.Unix(1_700_000_000, 0), keys: map[int]bool{}, orders: map[string]int{}}
	geo := new(geoip.DB)
	locate := func(p netip.Prefix, city string, lat, lon float64) {
		if err := geo.Insert(geoip.Record{Prefix: p, City: city, Country: "NL", Lat: lat, Lon: lon}); err != nil {
			t.Fatal(err)
		}
	}
	for pop := 0; pop < 16; pop++ {
		src, _ := memAddrs(pop, 0)
		locate(netip.PrefixFrom(src, 20), fmt.Sprintf("pop%d", pop), 40+float64(pop), 3)
	}
	for n := 0; n < 64; n++ {
		if n%8 == 7 {
			continue
		}
		_, dst := memAddrs(16*n, 0)
		locate(netip.PrefixFrom(dst, 24), fmt.Sprintf("dst%d", n), 45+float64(n%5), 5+float64(n)/3)
		locate(netip.PrefixFrom(dst, 28), fmt.Sprintf("dst%d-low", n), 60+float64(n%5), 20)
	}
	r.w = mustWindow(t, time.Minute, 4)
	r.w.SetClock(func() time.Time { return r.now })
	r.cfg = Config{
		Window:      r.w,
		Resolver:    &demandfit.Resolver{Geo: geo},
		Demand:      econ.CED{Alpha: 1.1},
		Cost:        cost.Linear{Theta: 0.2},
		P0:          20,
		Strategy:    bundling.Optimal{},
		Tiers:       3,
		DurationSec: 240,
		Workers:     2,
	}
	var err error
	if r.kept, err = NewRepricer(r.cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// ingest adds one never-repeated record per key; host picks the endpoint
// sample it offers (the lowest a bucket has seen wins).
func (r *memRig) ingest(host byte, keys ...int) {
	recs := make([]netflow.Record, 0, len(keys))
	for _, k := range keys {
		k %= 1024
		r.keys[k] = true
		r.seq++
		src, dst := memAddrs(k, host)
		recs = append(recs, netflow.Record{SrcAddr: src, DstAddr: dst, Octets: 1000 + r.seq%977*13,
			Packets: 1, First: r.seq, SrcAS: uint16(r.seq), Input: uint16(host)})
	}
	r.w.Ingest(netflow.Header{SamplingInterval: 10}, recs)
}

func (r *memRig) reconfigure(change func(*Config)) {
	r.t.Helper()
	change(&r.cfg)
	if err := r.kept.Reconfigure(r.cfg); err != nil {
		r.t.Fatal(err)
	}
}

// check re-prices with the kept repricer and with a fresh one and
// compares everything they publish.
func (r *memRig) check() {
	t := r.t
	t.Helper()
	r.steps++
	fresh, err := NewRepricer(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := r.kept.Current()
	got, gotErr := r.kept.Reprice(context.Background())
	want, wantErr := fresh.Reprice(context.Background())
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("step %d: kept repricer err = %v, fresh err = %v", r.steps, gotErr, wantErr)
	}
	if gotErr != nil {
		if r.kept.Current() != before {
			t.Fatalf("step %d: a failed re-price displaced the serving snapshot", r.steps)
		}
		if errors.Is(gotErr, ErrEmptyWindow) && !reflect.DeepEqual(&r.kept.mem, &rowMemory{}) {
			t.Fatalf("step %d: the repricer still remembers rows of a drained window: %+v", r.steps, r.kept.mem)
		}
		return
	}
	gotTable, _ := got.Table.Marshal()
	wantTable, _ := want.Table.Marshal()
	if !bytes.Equal(gotTable, wantTable) {
		t.Fatalf("step %d: tier table\n got %s\nwant %s", r.steps, gotTable, wantTable)
	}
	if got.Skipped != want.Skipped {
		t.Fatalf("step %d: skipped %d, fresh skipped %d", r.steps, got.Skipped, want.Skipped)
	}
	if g, w := got.RIB().Routes(), want.RIB().Routes(); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d: RIB routes\n got %+v\nwant %+v", r.steps, g, w)
	}
	stranger := netip.MustParseAddr("192.0.2.1")
	for k := range r.keys {
		src, dst := memAddrs(k, 9)
		_, high := memAddrs(k, 100)
		for _, probe := range [][2]netip.Addr{{src, dst}, {src, high}, {stranger, dst}, {src, stranger}} {
			gq, gok := got.Quote(probe[0], probe[1])
			wq, wok := want.Quote(probe[0], probe[1])
			if gq != wq || gok != wok {
				t.Fatalf("step %d: quote %v>%v = %+v %v, fresh %+v %v", r.steps, probe[0], probe[1], gq, gok, wq, wok)
			}
		}
	}
	if n := len(r.kept.mem.aggs); n != got.Rows || len(r.kept.mem.known) != n || len(r.kept.mem.keys) != n {
		t.Fatalf("step %d: %d rows priced, %d/%d/%d remembered", r.steps, got.Rows, n, len(r.kept.mem.known), len(r.kept.mem.keys))
	}
	tr := got.RepriceTrace
	if tr.New+tr.Changed > tr.Rows || tr.FitReused > tr.Rows-tr.New || tr.ResolveReused > tr.Rows-tr.New {
		t.Fatalf("step %d: inconsistent trace %+v", r.steps, tr)
	}
	s := &r.seen
	s.New, s.Changed, s.Retired = max(s.New, tr.New), max(s.Changed, tr.Changed), max(s.Retired, tr.Retired)
	s.ResolveReused, s.FitReused = max(s.ResolveReused, tr.ResolveReused), max(s.FitReused, tr.FitReused)
	s.HintHits = max(s.HintHits, tr.HintHits)
	r.orders[tr.CostOrder]++
}

func span(from, to int) (keys []int) {
	for k := from; k < to; k++ {
		keys = append(keys, k)
	}
	return keys
}

// TestRememberingRepricerMatchesFresh: the repricer's memory is
// unobservable. One repricer kept across a schedule — steady epochs,
// octets moving on a few rows, a moved endpoint sample, a new key per
// step, keys ageing out, rows that never resolve, an empty window, the
// clock stepping back, α and the mask widths reconfigured mid-way — and a
// fresh one per step publish the same table bytes, quotes, skips and
// routes.
func TestRememberingRepricerMatchesFresh(t *testing.T) {
	r := newMemRig(t)
	step := func(advance time.Duration, host byte, keys ...int) {
		t.Helper()
		r.now = r.now.Add(advance)
		if len(keys) > 0 {
			r.ingest(host, keys...)
		}
		r.check()
	}
	r.check() // nothing yet: both report the empty window
	step(0, 100, span(0, 200)...)
	for i := 0; i < 6; i++ { // steady: nothing arrives
		step(5*time.Second, 0)
	}
	for i := 0; i < 12; i++ { // octets move on 3 % of the rows
		step(5*time.Second, 100, 3*i, 3*i+70, 3*i+140, 3*i+1, 3*i+71, 3*i+141)
	}
	step(5*time.Second, 3, 42) // key 42's sample moves to a lower host
	step(5*time.Second, 5, 90) // key 90's moves into the far /28: its row changes place in cost order
	if tr := r.kept.Current().RepriceTrace; tr.CostOrder != "merged" || tr.OrderMerged != 1 {
		t.Fatalf("a row moved across others in cost order: cost order %q with %d merged, want it merged alone",
			tr.CostOrder, tr.OrderMerged)
	}
	for i := 0; i < 12; i++ { // one never-seen key per step
		step(5*time.Second, 100, 300+i, i)
	}
	for i := 0; i < 12; i++ { // the first burst ages out; thirty keys stay
		step(25*time.Second, 100, span(0, 30)...)
	}
	r.reconfigure(func(c *Config) { c.Demand = econ.CED{Alpha: 2.5} })
	step(5*time.Second, 100, 7)
	step(5*time.Second, 0)
	r.reconfigure(func(c *Config) { c.SrcMaskBits, c.DstMaskBits = 16, 22 })
	step(5*time.Second, 100, 8)
	step(5*time.Second, 0)
	r.reconfigure(func(c *Config) { c.DstMaskBits = 28 }) // finer than the bucket: the sample picks the key
	step(5*time.Second, 100, 8)
	step(5*time.Second, 2, 8, 24)
	r.reconfigure(func(c *Config) { c.Demand = econ.Logit{Alpha: 1.1, S0: 0.2}; c.Strategy = bundling.ProfitWeighted{} })
	step(5*time.Second, 100, 9)
	r.reconfigure(func(c *Config) {
		c.Demand, c.Strategy, c.SrcMaskBits, c.DstMaskBits = econ.CED{Alpha: 1.1}, bundling.Optimal{}, 20, 24
	})
	step(5*time.Minute, 0) // nothing live
	if r.kept.Current() == nil {
		t.Fatal("no snapshot survived the empty window")
	}
	step(0, 100, span(0, 60)...)
	for i := 0; i < 6; i++ { // the clock steps back, into slots behind the newest
		step(-20*time.Second, 100, span(40, 70)...)
	}
	step(time.Hour, 100, 1, 2, 3) // and past the whole window
	for i := 0; i < 40; i++ {     // a churning set: six keys, sliding by one each step
		step(20*time.Second, 100, span(500+i, 506+i)...)
	}
	if s := r.seen; s.New == 0 || s.Changed == 0 || s.Retired == 0 || s.ResolveReused == 0 || s.FitReused == 0 || s.HintHits == 0 ||
		r.orders["carried"] == 0 || r.orders["merged"] == 0 {
		t.Fatalf("the schedule never exercised part of the memory: %+v, cost orders %v", s, r.orders)
	}
}

// FuzzRepricerMemory turns bytes into the same kind of schedule — two
// bytes an operation — and holds it to the same comparison.
func FuzzRepricerMemory(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 2, 3, 3, 3, 0, 9, 5, 1, 2, 200, 6, 2, 7, 0, 4, 10, 1, 8, 2, 11})
	f.Add([]byte{4, 100, 4, 112, 0, 30, 2, 105, 0, 30, 0, 30, 0, 30, 3, 7, 5, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		r := newMemRig(t)
		for ; len(data) >= 2; data = data[2:] {
			arg := int(data[1])
			switch data[0] % 8 {
			case 0:
				r.now = r.now.Add(time.Duration(arg) * time.Second)
			case 1:
				r.now = r.now.Add(-time.Duration(arg) * time.Second)
			case 2:
				r.ingest(100, arg)
			case 3:
				r.ingest(byte(1+arg%5), arg)
			case 4:
				r.ingest(100, span(arg, arg+40)...)
			case 5:
				r.reconfigure(func(c *Config) { c.Demand = econ.CED{Alpha: 1.1 + float64(arg%4)/2} })
			case 6:
				r.reconfigure(func(c *Config) { c.SrcMaskBits, c.DstMaskBits = 16+2*(arg%3), 20+2*(arg%3) })
			case 7:
				r.now = r.now.Add(5 * time.Minute)
			}
			r.check()
		}
	})
}

// TestRememberedResolveNeverHidesAnOutage: rows resolved through anything
// but the pure in-memory resolver are asked again every epoch, so the
// first re-price of an outage fails — with the memory warm — and the
// serving snapshot holds.
func TestRememberedResolveNeverHidesAnOutage(t *testing.T) {
	r := newMemRig(t)
	rv := faultinject.NewResolver(faultinject.New(24), r.cfg.Resolver)
	r.reconfigure(func(c *Config) { c.Resolver = rv })
	r.ingest(100, span(0, 50)...)
	ctx := context.Background()
	var served *Snapshot
	for i := 0; i < 3; i++ { // warm: the fit is reused, the resolutions are not
		snap, err := r.kept.Reprice(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (snap.FitReused == 0 || snap.ResolveReused != 0) {
			t.Fatalf("epoch %d reused %d fits and %d resolutions through a fault-injected resolver", i, snap.FitReused, snap.ResolveReused)
		}
		served = snap
	}
	rv.SetOutage(true)
	if snap, err := r.kept.Reprice(ctx); err == nil {
		t.Fatalf("re-price during a resolver outage published epoch %d", snap.Epoch)
	}
	if r.kept.Current() != served || r.kept.ConsecutiveFailures() != 1 {
		t.Fatalf("after the outage: serving epoch %d (want %d), %d consecutive failures (want 1)",
			r.kept.Current().Epoch, served.Epoch, r.kept.ConsecutiveFailures())
	}
	rv.SetOutage(false)
	if _, err := r.kept.Reprice(ctx); err != nil {
		t.Fatal(err)
	}
	r.check()
}
