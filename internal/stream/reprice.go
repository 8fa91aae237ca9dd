package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"tieredpricing/internal/bgp"
	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
)

// ErrEmptyWindow is returned by Reprice when the window holds no
// aggregates yet; the previous snapshot (if any) stays current.
var ErrEmptyWindow = errors.New("stream: window holds no aggregates")

// AggregateSource supplies the live demand aggregates a Repricer
// prices: a *Window or any equivalent accumulator.
// Aggregates must return buckets sorted by key.
type AggregateSource interface {
	Aggregates() []netflow.Aggregate
	Span() time.Duration
}

// Config wires a Repricer to the window it reads and the models it fits.
type Config struct {
	// Window supplies the live aggregates.
	Window AggregateSource
	// Resolver maps aggregate endpoints to distance and region. A
	// resolver that also implements demandfit.ContextResolver gets the
	// re-price context, so a wedged lookup cannot outlive a bounded
	// drain.
	Resolver demandfit.EndpointResolver
	// Demand and Cost are the models to fit; P0 the blended rate anchor.
	Demand econ.Model
	Cost   cost.Model
	P0     float64
	// Strategy and Tiers select the bundling counterfactual to serve.
	Strategy bundling.Strategy
	Tiers    int
	// DurationSec converts windowed octets to Mbps. Zero selects the
	// window span — the steady-state choice; set it explicitly when
	// replaying a capture whose duration differs from the window.
	DurationSec float64
	// SrcMaskBits and DstMaskBits define the IPv4 quote key: a quote
	// request's endpoints are masked to these widths before lookup. They
	// must match the window's aggregation rule; zero selects the defaults
	// of traces.AggregateKey (src /20, dst /24).
	SrcMaskBits int
	DstMaskBits int
	// Src6MaskBits and Dst6MaskBits are the IPv6 mask widths. IPv4 widths
	// applied to IPv6 endpoints would collapse whole address ranges onto
	// one bucket, so the two families mask independently; zero selects
	// src /48, dst /64.
	Src6MaskBits int
	Dst6MaskBits int
	// Workers bounds the parallel resolve fan-out (0 = NumCPU).
	Workers int
	// NextHop is stamped on the tier-tagged RIB routes (§5.1); zero
	// selects the unspecified address.
	NextHop netip.Addr
	// Now is the repricer's time source (snapshot FittedAt stamps); nil
	// selects time.Now. Injectable for fault rehearsal and tests.
	Now func() time.Time
}

// TierQuote is one served tier: its index, price, and the window
// traffic it covers.
type TierQuote struct {
	Tier       int     `json:"tier"`
	Price      float64 `json:"price_usd_per_mbps_month"`
	Flows      int     `json:"flows"`
	DemandMbps float64 `json:"demand_mbps"`
}

// TierTable is the deterministic part of a pricing snapshot: everything
// that depends only on the window's aggregates and the configuration,
// nothing that depends on when the re-price ran. The offline consistency
// test asserts the online table is byte-identical to the batch
// pipeline's on the same window.
type TierTable struct {
	Model    string      `json:"model"`
	Strategy string      `json:"strategy"`
	P0       float64     `json:"blended_rate"`
	Flows    int         `json:"flows"`
	Profit   float64     `json:"profit"`
	Capture  *float64    `json:"capture,omitempty"` // omitted when undefined (no headroom)
	Tiers    []TierQuote `json:"tiers"`
}

// Marshal is the canonical byte encoding of a table (encoding/json with
// a fixed field order), used by both the /v1/tiers handler and the
// batch-parity tests.
func (t TierTable) Marshal() ([]byte, error) { return json.Marshal(t) }

// QuoteSource says which structure answered a quote.
type QuoteSource uint8

// Quote sources: an exact window-bucket match, or the tier-tagged BGP
// RIB's longest-prefix match on the destination.
const (
	SourceWindow QuoteSource = iota
	SourceRIB
)

// String returns the wire name of the source.
func (s QuoteSource) String() string {
	switch s {
	case SourceWindow:
		return "window"
	case SourceRIB:
		return "rib"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// Quote is a priced answer for one flow.
type Quote struct {
	Tier   int
	Price  float64
	Source QuoteSource
}

// quoteKey is the masked endpoint pair quotes are looked up by.
// netip.Addr is comparable, so the hot-path lookup allocates nothing.
type quoteKey struct {
	src netip.Addr
	dst netip.Addr
}

// Stage names one step of the re-price pipeline, in pipeline order.
type Stage int

// The re-price pipeline: merge the window into aggregates, resolve them
// to flows, fit the market, bundle it into tiers, price the tiers, build
// the serving structures.
const (
	StageAggregate Stage = iota
	StageResolve
	StageFit
	StageBundle
	StagePrice
	StageBuild
	NumStages
)

// String returns the stage's metric label.
func (s Stage) String() string {
	return [NumStages]string{"aggregate", "resolve", "fit", "bundle", "price", "build"}[s]
}

// StageTimes is the wall time each stage of one re-price took.
type StageTimes [NumStages]time.Duration

// Snapshot is one immutable re-price result. The repricer publishes
// snapshots through an atomic pointer swap: a snapshot is fully built
// before it becomes visible, is never mutated afterwards, and every
// quote served from it is consistent with every other quote and with
// /v1/tiers at the same epoch.
type Snapshot struct {
	// Epoch increments with every published snapshot.
	Epoch int64
	// FittedAt is when the re-price ran.
	FittedAt time.Time
	// Table is the deterministic pricing result.
	Table TierTable
	// Skipped counts window aggregates that failed to resolve.
	Skipped int
	// RepriceTrace is what this re-price did; its Stages, the wall time.
	RepriceTrace

	index    quoteIndex
	rib      *bgp.RIB
	srcBits  int
	dstBits  int
	src6Bits int
	dst6Bits int
}

// maskAddr masks a to the width of its address family (4-in-6 mapped
// addresses count as IPv4, matching how NetFlow records key the window).
// ok is false for an invalid address, which can never match a bucket.
func maskAddr(a netip.Addr, v4Bits, v6Bits int) (masked netip.Addr, ok bool) {
	if !a.IsValid() {
		return netip.Addr{}, false
	}
	a = a.Unmap()
	bits := v6Bits
	if a.Is4() {
		bits = v4Bits
	}
	p := netip.PrefixFrom(a, bits)
	if !p.IsValid() {
		return netip.Addr{}, false
	}
	return p.Masked().Addr(), true
}

// Quote prices one flow: the endpoints are masked to the snapshot's
// per-family key widths and matched against the window buckets; a miss
// falls back to a longest-prefix match of the destination in the
// tier-tagged RIB (the §5.2 accounting path for traffic the window has
// not seen from this source). The exact-match path performs no
// allocations.
func (s *Snapshot) Quote(src, dst netip.Addr) (Quote, bool) {
	srcMasked, srcOK := maskAddr(src, s.srcBits, s.src6Bits)
	dstMasked, dstOK := maskAddr(dst, s.dstBits, s.dst6Bits)
	if !srcOK || !dstOK {
		return Quote{}, false
	}
	if tier, ok := s.index.get(quoteKey{src: srcMasked, dst: dstMasked}); ok {
		return Quote{Tier: tier, Price: s.Table.Tiers[tier].Price, Source: SourceWindow}, true
	}
	if route, ok := s.rib.Lookup(dst.Unmap()); ok && route.Tier != nil {
		tier := int(route.Tier.Tier)
		if tier < len(s.Table.Tiers) {
			// The snapshot price is authoritative; the community's
			// milli-dollar price is the wire approximation.
			return Quote{Tier: tier, Price: s.Table.Tiers[tier].Price, Source: SourceRIB}, true
		}
	}
	return Quote{}, false
}

// RIB exposes the snapshot's tier-tagged routing table (read-only use).
func (s *Snapshot) RIB() *bgp.RIB { return s.rib }

// Repricer periodically re-fits the demand model over the window and
// publishes pricing snapshots. Reads (Current) and the periodic rebuild
// never block each other: Current is a single atomic load.
type Repricer struct {
	cfg Config // guarded by mu (Reconfigure swaps it)
	// now is pinned at construction: buildSnapshot stamps with it, and a
	// hot reload must not move the clock under a running repricer.
	now   func() time.Time
	epoch atomic.Int64
	cur   atomic.Pointer[Snapshot]
	// failures counts consecutive failed re-price attempts (reset on
	// success). Warm-up empty windows don't count; an empty window after
	// a snapshot exists does — that's an ingest gap, the signal the
	// staleness policy and the caller's retry lane both key off.
	failures atomic.Int64

	// mu serializes Reprice (the periodic tick and a caller-driven final
	// drain can race) and guards mem, what the repricer remembers of the
	// rows it last priced, and the runtime counters a trace reads. No
	// snapshot ever points into mem, so it is free again by the time
	// Reprice returns; the bundling DP's own tables are held in the
	// optimize package.
	mu      sync.Mutex
	mem     rowMemory
	runtime [2]metrics.Sample
}

// RestoreEpoch fast-forwards the epoch counter so the next published
// snapshot is numbered epoch+1. Recovery calls it with the last epoch a
// checkpoint recorded: epochs stay monotone across a restart, so
// clients correlating /v1/quote and /v1/tiers by epoch never see the
// sequence restart from 1. It must run before the first Reprice; values
// at or below the current counter are ignored (epochs never rewind).
func (r *Repricer) RestoreEpoch(epoch int64) {
	for {
		cur := r.epoch.Load()
		if epoch <= cur || r.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// NewRepricer validates the configuration.
func NewRepricer(cfg Config) (*Repricer, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	return &Repricer{cfg: cfg, now: cfg.Now}, nil
}

// Reconfigure swaps the repricer's pricing configuration in place —
// the zero-downtime reload path. The new configuration is validated
// before anything changes; on any error the old configuration stays
// active untouched. The live window and clock are pinned from the
// running repricer (a reload re-prices the demand you have, it does not
// discard it), and the current snapshot keeps serving quotes until the
// caller's next Reprice publishes one built under the new
// configuration — quoting never has a gap across a reload.
func (r *Repricer) Reconfigure(cfg Config) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cfg.Window = r.cfg.Window
	cfg.Now = r.now
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return err
	}
	// Every remembered value depends on something a reload may change.
	r.cfg, r.mem = cfg, rowMemory{}
	return nil
}

// CheckConfig validates cfg exactly as Reconfigure would — same
// pinning, same normalization — without swapping anything in. A fleet
// reload runs it across every tenant first so a bad overlay rejects
// the whole reload instead of leaving tenants on mixed generations.
func (r *Repricer) CheckConfig(cfg Config) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cfg.Window = r.cfg.Window
	cfg.Now = r.now
	_, err := normalizeConfig(cfg)
	return err
}

// normalizeConfig validates a Config and fills in the defaults, shared
// by construction and hot reload so the two paths cannot diverge.
func normalizeConfig(cfg Config) (Config, error) {
	fail := func(err error) (Config, error) { return Config{}, err }
	if cfg.Window == nil {
		return fail(errors.New("stream: repricer needs a window"))
	}
	if cfg.Resolver == nil {
		return fail(errors.New("stream: repricer needs a resolver"))
	}
	if cfg.Demand == nil || cfg.Cost == nil {
		return fail(errors.New("stream: repricer needs demand and cost models"))
	}
	if !econ.FinitePositive(cfg.P0) {
		return fail(fmt.Errorf("stream: blended rate must be finite and positive, got %v", cfg.P0))
	}
	if cfg.Strategy == nil {
		return fail(errors.New("stream: repricer needs a bundling strategy"))
	}
	if cfg.Tiers < 1 {
		return fail(errors.New("stream: need at least one tier"))
	}
	if cfg.DurationSec == 0 {
		cfg.DurationSec = cfg.Window.Span().Seconds()
	}
	if !econ.FinitePositive(cfg.DurationSec) {
		return fail(fmt.Errorf("stream: demand duration must be finite and positive, got %v", cfg.DurationSec))
	}
	if cfg.SrcMaskBits == 0 {
		cfg.SrcMaskBits = 20
	}
	if cfg.DstMaskBits == 0 {
		cfg.DstMaskBits = 24
	}
	if cfg.SrcMaskBits < 0 || cfg.SrcMaskBits > 32 || cfg.DstMaskBits < 0 || cfg.DstMaskBits > 32 {
		return fail(fmt.Errorf("stream: mask bits out of range (%d, %d)", cfg.SrcMaskBits, cfg.DstMaskBits))
	}
	if cfg.Src6MaskBits == 0 {
		cfg.Src6MaskBits = 48
	}
	if cfg.Dst6MaskBits == 0 {
		cfg.Dst6MaskBits = 64
	}
	if cfg.Src6MaskBits < 0 || cfg.Src6MaskBits > 128 || cfg.Dst6MaskBits < 0 || cfg.Dst6MaskBits > 128 {
		return fail(fmt.Errorf("stream: IPv6 mask bits out of range (%d, %d)", cfg.Src6MaskBits, cfg.Dst6MaskBits))
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if !cfg.NextHop.IsValid() {
		cfg.NextHop = netip.AddrFrom4([4]byte{0, 0, 0, 0})
	}
	return cfg, nil
}

// ConsecutiveFailures reports how many re-price attempts have failed in
// a row (0 after any success). Warm-up empty windows are not failures;
// an empty window once a snapshot exists is, because it means ingest
// stopped feeding the window.
func (r *Repricer) ConsecutiveFailures() int64 { return r.failures.Load() }

// Current returns the latest published snapshot, or nil before the first
// successful re-price.
func (r *Repricer) Current() *Snapshot { return r.cur.Load() }

// Reprice rebuilds pricing from the current window contents and, on
// success, atomically publishes the new snapshot. The previous snapshot
// stays current on any failure (including an empty window), so a
// transient ingest gap never takes quoting down.
func (r *Repricer) Reprice(ctx context.Context) (*Snapshot, error) {
	snap, err := r.reprice(ctx)
	switch {
	case err == nil:
		r.failures.Store(0)
	case errors.Is(err, ErrEmptyWindow) && r.cur.Load() == nil:
		// Warm-up: nothing has arrived yet, nothing is at risk.
	default:
		r.failures.Add(1)
	}
	return snap, err
}

func (r *Repricer) reprice(ctx context.Context) (*Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var tr RepriceTrace
	allocs, cycles := r.readRuntime()
	mark := time.Now()
	lap := func(s Stage) {
		now := time.Now()
		tr.Stages[s], mark = now.Sub(mark), now
	}
	var aggs []netflow.Aggregate
	if w, ok := r.cfg.Window.(interface {
		AggregatesInto([]netflow.Aggregate) []netflow.Aggregate
	}); ok {
		aggs = w.AggregatesInto(r.mem.spareAggs) // the rows of the epoch before last
	} else {
		aggs = r.cfg.Window.Aggregates()
	}
	if len(aggs) == 0 {
		r.mem = rowMemory{} // no rows, nothing to remember them by
		return nil, ErrEmptyWindow
	}
	if h, ok := r.cfg.Window.(interface{ MergeHints() (hits, misses uint64) }); ok {
		tr.HintHits, tr.HintMisses = h.MergeHints()
	}
	lap(StageAggregate)
	// Only the in-memory resolver's answer depends on the address pair
	// alone; a kept answer of any other would hide its outage.
	_, pure := r.cfg.Resolver.(*demandfit.Resolver)
	r.mem.advance(aggs, pure, &tr)
	flows, skipped, err := demandfit.BuildFlowsKnown(
		ctx, r.mem.flows, aggs, r.mem.known, r.cfg.Resolver, r.cfg.DurationSec, r.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("stream: resolve: %w", err)
	}
	r.mem.flows = flows[:0]
	lap(StageResolve)
	market, err := r.mem.fitter.Fit(flows, r.cfg.Demand, r.cfg.Cost, r.cfg.P0)
	if err != nil {
		return nil, fmt.Errorf("stream: fit: %w", err)
	}
	lap(StageFit)
	partition, err := market.Bundle(r.cfg.Strategy, r.cfg.Tiers)
	if err != nil {
		return nil, fmt.Errorf("stream: reprice: %w", err)
	}
	tr.CostOrder, tr.OrderMerged = market.CostOrder()
	lap(StageBundle)
	out, err := market.Price(r.cfg.Strategy, r.cfg.Tiers, partition)
	if err != nil {
		return nil, fmt.Errorf("stream: reprice: %w", err)
	}
	if ced, ok := market.Demand.(econ.CED); ok {
		reused, pows := ced.FitStats()
		tr.FitReused, tr.Powers = int(reused), pows
	}
	lap(StagePrice)
	snap, err := r.buildSnapshot(flows, skipped, out, aggs)
	if err != nil {
		return nil, err
	}
	lap(StageBuild)
	allocs2, cycles2 := r.readRuntime()
	tr.AllocBytes, tr.GCCycles = allocs2-allocs, cycles2-cycles
	snap.RepriceTrace = tr
	r.cur.Store(snap)
	return snap, nil
}

// readRuntime reads the process's cumulative heap allocation and
// completed GC cycles.
func (r *Repricer) readRuntime() (allocBytes, gcCycles uint64) {
	s := &r.runtime
	s[0].Name, s[1].Name = "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// buildSnapshot assembles the immutable serving structures from one
// re-price outcome.
func (r *Repricer) buildSnapshot(flows []econ.Flow, skipped int, out core.Outcome, aggs []netflow.Aggregate) (*Snapshot, error) {
	table := tableFrom(out, flows, r.cfg.Demand.Name(), r.cfg.P0)

	// Resolution keeps aggregate order and only drops skips, so the flows
	// are a subsequence of the key-sorted aggregates: one forward walk
	// pairs each flow with its source aggregate.
	aggOf := make([]int32, len(flows))
	k := 0
	for i := range flows {
		for k < len(aggs) && aggs[k].Key != flows[i].ID {
			k++
		}
		if k == len(aggs) {
			return nil, fmt.Errorf("stream: flow %q has no source aggregate", flows[i].ID)
		}
		aggOf[i] = int32(k)
		k++
	}
	m := &r.mem
	keys := m.keys
	if len(aggs) == 0 || len(m.aggs) != len(aggs) || &m.aggs[0] != &aggs[0] {
		keys = make([]rowKey, len(aggs)) // not the rows advance was given: nothing kept is theirs
	}
	index := newQuoteIndex(len(flows))
	// tierOf resolves multi-bucket destinations deterministically: when
	// two source PoPs reach the same destination prefix in different
	// tiers, the route advertises the cheaper tier — by price, not tier
	// index, since nothing guarantees prices are sorted by index (ties
	// break toward the lower index); it is indexed by the prefix ids the
	// rows remember. IPv6 buckets get quote keys but no route: the
	// tier-tagged RIB speaks the IPv4 wire format, so IPv6 traffic is
	// served from the window exact-match path only.
	tierOf := make([]int, len(m.prefixes), len(m.prefixes)+64)
	for id := range tierOf {
		tierOf[id] = -1
	}
	for tier, block := range out.Partition {
		for _, i := range block {
			k := &keys[aggOf[i]]
			if k.prefix == 0 {
				a := &aggs[aggOf[i]]
				srcMasked, srcOK := maskAddr(a.SrcAddr, r.cfg.SrcMaskBits, r.cfg.Src6MaskBits)
				dstMasked, dstOK := maskAddr(a.DstAddr, r.cfg.DstMaskBits, r.cfg.Dst6MaskBits)
				if !srcOK || !dstOK {
					return nil, fmt.Errorf("stream: aggregate %q has an invalid endpoint sample (%v>%v)",
						a.Key, a.SrcAddr, a.DstAddr)
				}
				k.key, k.prefix = quoteKey{src: srcMasked, dst: dstMasked}, -1
				if dstMasked.Is4() {
					pfx := netip.PrefixFrom(dstMasked, r.cfg.DstMaskBits)
					id, ok := m.prefixID[pfx]
					if !ok { // first seen now: the next id
						if id = int32(len(m.prefixes)); id == 0 {
							m.prefixID = make(map[netip.Prefix]int32)
						}
						m.prefixID[pfx], m.prefixes, tierOf = id, append(m.prefixes, pfx), append(tierOf, -1)
					}
					k.prefix = 1 + id
				}
			}
			index.set(k.key, tier)
			if k.prefix < 0 {
				continue
			}
			if prev := tierOf[k.prefix-1]; prev < 0 ||
				out.Prices[tier] < out.Prices[prev] ||
				(out.Prices[tier] == out.Prices[prev] && tier < prev) {
				tierOf[k.prefix-1] = tier
			}
		}
	}

	rib := bgp.NewRIB()
	prefixes := make([]netip.Prefix, 0, len(tierOf))
	for id, tier := range tierOf {
		if tier >= 0 {
			prefixes = append(prefixes, m.prefixes[id])
		}
	}
	updates, err := bgp.AnnounceTiered(prefixes, r.cfg.NextHop,
		func(p netip.Prefix) int { return tierOf[m.prefixID[p]] }, out.Prices)
	if err != nil {
		return nil, fmt.Errorf("stream: tier announcements: %w", err)
	}
	for i := range updates {
		if err := rib.Apply(&updates[i]); err != nil {
			return nil, fmt.Errorf("stream: installing tier routes: %w", err)
		}
	}
	if len(m.prefixes) > 2*len(prefixes)+64 {
		// Most ids name prefixes nothing routes to any more: forget them,
		// and every row's key with them, so that destinations that churn
		// do not grow the table without bound.
		m.prefixID, m.prefixes = nil, nil
		clear(m.keys)
	}

	return &Snapshot{
		Epoch:    r.epoch.Add(1),
		FittedAt: r.now(),
		Table:    table,
		Skipped:  skipped,
		index:    index,
		rib:      rib,
		srcBits:  r.cfg.SrcMaskBits,
		dstBits:  r.cfg.DstMaskBits,
		src6Bits: r.cfg.Src6MaskBits,
		dst6Bits: r.cfg.Dst6MaskBits,
	}, nil
}

// tableFrom renders an outcome into the canonical tier table. It is the
// single construction path for both the online snapshot and the batch
// parity check, so the two cannot drift.
func tableFrom(out core.Outcome, flows []econ.Flow, modelName string, p0 float64) TierTable {
	tiers := make([]TierQuote, len(out.Partition))
	for b, block := range out.Partition {
		var demand float64
		for _, i := range block {
			demand += flows[i].Demand
		}
		tiers[b] = TierQuote{
			Tier:       b,
			Price:      out.Prices[b],
			Flows:      len(block),
			DemandMbps: demand,
		}
	}
	table := TierTable{
		Model:    modelName,
		Strategy: out.Strategy,
		P0:       p0,
		Flows:    len(flows),
		Profit:   out.Profit,
		Tiers:    tiers,
	}
	if !math.IsNaN(out.Capture) {
		c := out.Capture
		table.Capture = &c
	}
	return table
}

// BatchTable runs the batch pipeline's market fit on an already-built
// flow set and renders the same canonical table a snapshot would carry —
// the reference side of the online/batch consistency check.
func BatchTable(flows []econ.Flow, demand econ.Model, costModel cost.Model, p0 float64,
	strategy bundling.Strategy, tiers int) (TierTable, error) {
	market, err := core.NewMarket(flows, demand, costModel, p0)
	if err != nil {
		return TierTable{}, err
	}
	out, err := market.Run(strategy, tiers)
	if err != nil {
		return TierTable{}, err
	}
	return tableFrom(out, flows, demand.Name(), p0), nil
}
