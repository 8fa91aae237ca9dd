// The fleet: every member owns a full pricing engine — sliding window,
// repricer, demand-model configuration, quote quota and durability
// namespace — while sharing the process, the UDP collector (datagrams
// route by the exporting router's engine ID) and the HTTP listener
// (/v1/t/{tenant}/...). Re-prices across members are scheduled by a
// weighted-fair queue so one tenant's expensive re-fit cannot starve the
// others' pricing freshness. A daemon started without -tenants runs the
// same code over one synthesised member.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/histstore"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/tenant"
)

// member is one tenant's runtime state inside the fleet.
type member struct {
	spec     tenant.Spec
	tn       *tenant.Tenant
	window   *stream.Window
	repricer *stream.Repricer
	metrics  *server.Metrics
	durable  *durability // nil without -data-dir

	// history is the daemon's one history store (rows under spec.ID);
	// configEpoch reads the process-wide pricing-config generation each
	// row is stamped with.
	history     *histstore.Store
	configEpoch func() int64

	// pricingConfig derives a repricer configuration from a pricing:
	// buildEngine's, which every hot reload goes through.
	pricingConfig func(tenant.Pricing) (stream.Config, error)

	// lastFailed marks the member for the tick loop's fast retry lane.
	lastFailed atomic.Bool
}

// tenantDir is a tenant's durability namespace under the data dir.
func tenantDir(dataDir, id string) string {
	return filepath.Join(dataDir, "tenants", id)
}

// newMember builds one pricing engine from the spec's trace (else
// -trace) and its effective pricing p, recovers it from dir (the
// member's durability namespace; stamp is the tenant ID its checkpoints
// carry) when -data-dir is set, resumes its epochs past every one it
// published before, and adds it to the fleet.
func (d *daemon) newMember(sp tenant.Spec, p tenant.Pricing, dir, stamp string) (*member, error) {
	cfg := d.cfg
	wrap := cfg.wrapResolver
	if cfg.wrapTenantResolver != nil {
		wrap = func(rv demandfit.EndpointResolver) demandfit.EndpointResolver {
			return cfg.wrapTenantResolver(sp.ID, rv)
		}
	}
	trace := sp.Trace
	if trace == "" {
		trace = cfg.trace
	}
	w, rp, pc, err := buildEngine(cfg, trace, p, wrap)
	if err != nil {
		return nil, err
	}
	m := &member{spec: sp, window: w, repricer: rp, pricingConfig: pc, metrics: server.NewMetrics(),
		history: d.histStore, configEpoch: d.reload.epoch}
	var sink netflow.Sink = w
	if cfg.dataDir != "" {
		// Recover before serving: restore the newest checkpoint and replay
		// the WAL tail through the window.
		backfill := func(raw json.RawMessage) { backfillHistory(d.histStore, sp.ID, raw) }
		if m.durable, err = openDurability(cfg, dir, stamp, w, rp, backfill, d.reload.epoch); err != nil {
			return nil, err
		}
		d.reload.raise(m.durable.restoredConfigEpoch)
		sink = m.durable.sink()
	}
	// A restart never reuses an epoch: the store may hold epochs
	// published after the newest checkpoint, or without one at all.
	newest, err := d.histStore.Scan(sp.ID, histstore.Query{Limit: 1})
	if err != nil {
		return nil, err
	}
	for _, e := range newest {
		rp.RestoreEpoch(e.Epoch)
		d.reload.raise(e.ConfigEpoch)
	}
	m.tn = &tenant.Tenant{
		Spec:    sp,
		Limiter: tenant.NewBucket(sp.RateQPS, sp.RateBurst, cfg.now),
		Sink:    sink,
	}
	d.members = append(d.members, m)
	return m, nil
}

// serverTenant is the member's handle on the HTTP layer.
func (m *member) serverTenant(maxAge time.Duration) *server.Tenant {
	st := &server.Tenant{
		ID:             m.spec.ID,
		Snapshots:      m.repricer,
		Metrics:        m.metrics,
		Ingest:         m.ingestStats,
		History:        func(q histstore.Query) ([]histstore.Entry, error) { return m.history.Scan(m.spec.ID, q) },
		MaxSnapshotAge: maxAge,
		Weight:         m.tn.Weight(),
		RateQPS:        m.tn.Limiter.Rate(),
		RateBurst:      m.tn.Limiter.Burst(),
	}
	if m.tn.Limiter != nil {
		st.Limiter = m.tn.Limiter
	}
	if m.durable != nil {
		st.Durability = m.durable.stats
	}
	return st
}

// warnOrphanNamespaces flags on-disk tenant namespaces no configured
// tenant owns: likely a renamed or removed tenant whose durable state
// would otherwise rot silently.
func warnOrphanNamespaces(dataDir string, specs []tenant.Spec) {
	if dataDir == "" {
		return
	}
	entries, err := os.ReadDir(filepath.Join(dataDir, "tenants"))
	if err != nil {
		return // nothing on disk yet
	}
	known := make(map[string]bool, len(specs))
	for _, sp := range specs {
		known[sp.ID] = true
	}
	for _, e := range entries {
		if e.IsDir() && !known[e.Name()] {
			fmt.Fprintf(os.Stderr, "tierd: warning: orphan tenant namespace %s (no such tenant configured)\n",
				tenantDir(dataDir, e.Name()))
		}
	}
}

// collectorStats reports the shared UDP collector's datagram counters;
// record-level counters live on each tenant.
func (d *daemon) collectorStats() server.IngestStats {
	var packets, bad int
	var socketDrops uint64
	if d.udp != nil {
		packets, bad = d.udp.Stats()
		socketDrops = d.udp.SocketDrops()
	}
	return server.IngestStats{Packets: uint64(packets), BadPackets: uint64(bad), SocketDrops: socketDrops}
}

// ingestStats is one tenant's routed-ingest view: datagrams the
// registry routed here plus the tenant window's record counters.
func (m *member) ingestStats() server.IngestStats {
	records, duplicates, dropped, _ := m.window.Stats()
	return server.IngestStats{
		Packets:    m.tn.RoutedPackets(),
		Records:    uint64(records),
		Duplicates: uint64(duplicates),
		Dropped:    uint64(dropped),
	}
}

// repriceOnce runs one re-price for the member and feeds its telemetry.
func (m *member) repriceOnce(ctx context.Context) {
	start := time.Now()
	snap, err := m.repricer.Reprice(ctx)
	m.onTick(snap, time.Since(start), err)
}

// onTick feeds re-price telemetry into the member's metrics and history.
// An empty window before the first snapshot is the normal warm-up state,
// not a failure; an empty window afterwards is an ingest gap and counts
// like one (the repricer's consecutive-failure accounting makes the same
// call).
func (m *member) onTick(snap *stream.Snapshot, elapsed time.Duration, err error) {
	m.metrics.ConsecutiveFailures.Set(m.repricer.ConsecutiveFailures())
	if errors.Is(err, stream.ErrEmptyWindow) && m.repricer.Current() == nil {
		m.lastFailed.Store(false)
		return
	}
	m.metrics.ObserveReprice(elapsed.Seconds(), err != nil)
	m.lastFailed.Store(err != nil)
	if snap != nil {
		m.metrics.RepriceFlows.Set(int64(snap.Table.Flows))
		m.metrics.ObserveSnapshot(snap)
		m.recordHistory(snap)
	}
	if err != nil && !errors.Is(err, stream.ErrEmptyWindow) {
		fmt.Fprintf(os.Stderr, "tierd: tenant %s: reprice: %v\n", m.spec.ID, err)
	}
}

// tickLoop submits every member's re-price each interval, plus a fast
// retry lane (interval/8, floored at 10ms) for members whose last
// attempt failed, so a transient resolver outage shortens snapshot
// staleness rather than extending it. This is the one retry policy:
// coalescing in the scheduler absorbs resubmits while a job is pending.
func (d *daemon) tickLoop(ctx context.Context) {
	ticker := time.NewTicker(d.cfg.reprice)
	defer ticker.Stop()
	retry := d.cfg.reprice / 8
	if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	retryTicker := time.NewTicker(retry)
	defer retryTicker.Stop()
	submit := func(m *member) { d.sched.Submit(m.spec.ID, m.tn.Weight(), m.repriceOnce) }
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			for _, m := range d.members {
				submit(m)
			}
		case <-retryTicker.C:
			for _, m := range d.members {
				if m.lastFailed.Load() {
					submit(m)
				}
			}
		}
	}
}

// ingestStdin feeds a concatenated export stream (tracegen -stdout)
// through g into the router; at EOF every member re-prices immediately
// so piped replays serve quotes without waiting out the next tick. Once
// the drain has begun it delivers nothing more, EOF re-price included:
// the drain's own re-price covers what came before.
func (d *daemon) ingestStdin(ctx context.Context, stdin io.Reader, g *gate) {
	if _, err := netflow.Feed(g, bufio.NewReader(stdin)); err != nil {
		fmt.Fprintln(os.Stderr, "tierd: stdin:", err)
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sink == nil || ctx.Err() != nil {
		return
	}
	for _, m := range d.members {
		m.repriceOnce(ctx)
	}
	fmt.Fprintln(os.Stderr, "tierd: stdin stream complete, snapshots published")
}

// gate hands datagrams to sink until close. A datagram being handed
// over when close is called completes first; none follows it.
type gate struct {
	mu   sync.Mutex
	sink netflow.Sink // nil once closed
}

func (g *gate) Ingest(h netflow.Header, recs []netflow.Record) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sink != nil {
		g.sink.Ingest(h, recs)
	}
}

func (g *gate) close() {
	g.mu.Lock()
	g.sink = nil
	g.mu.Unlock()
}
