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
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tieredpricing/internal/demandfit"
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
	reloader *engineReloader
	recorder *histRecorder
	metrics  *server.Metrics
	durable  *durability // nil without -data-dir

	// lastFailed marks the member for the tick loop's fast retry lane.
	lastFailed atomic.Bool
}

// tenantDir is a tenant's durability namespace under the data dir.
func tenantDir(dataDir, id string) string {
	return filepath.Join(dataDir, "tenants", id)
}

// newMember builds one pricing engine from its effective spec, recovers
// it from dir (the member's durability namespace; stamp is the tenant ID
// its checkpoints carry) when -data-dir is set, and adds it to the fleet.
func (d *daemon) newMember(sp tenant.Spec, es engineSpec, dir, stamp string) (*member, error) {
	cfg := d.cfg
	wrap := cfg.wrapResolver
	if cfg.wrapTenantResolver != nil {
		wrap = func(rv demandfit.EndpointResolver) demandfit.EndpointResolver {
			return cfg.wrapTenantResolver(sp.ID, rv)
		}
	}
	w, rp, rl, err := buildEngine(cfg, es, wrap)
	if err != nil {
		return nil, err
	}
	m := &member{spec: sp, window: w, repricer: rp, reloader: rl, metrics: server.NewMetrics()}
	m.recorder = newHistRecorder(sp.ID, cfg.historyRing, d.histStore, d.reload.epoch)
	var sink netflow.Sink = w
	if cfg.dataDir != "" {
		// Recover before serving: restore the newest checkpoint and replay
		// the WAL tail through the window.
		if m.durable, err = openDurability(cfg, dir, stamp, w, rp, m.recorder, d.reload.epoch); err != nil {
			return nil, err
		}
		d.reload.raise(m.durable.restoredConfigEpoch)
		sink = m.durable.sink()
	}
	m.tn = &tenant.Tenant{
		Spec:    sp,
		Window:  w,
		Limiter: tenant.NewBucket(sp.RateQPS, sp.RateBurst, cfg.now),
		Sink:    sink,
	}
	d.members = append(d.members, m)
	return m, nil
}

// serverTenant is the member's handle on the HTTP layer.
func (m *member) serverTenant(maxAge time.Duration, deepHistory bool) *server.Tenant {
	st := &server.Tenant{
		ID:             m.spec.ID,
		Snapshots:      m.repricer,
		Metrics:        m.metrics,
		Ingest:         m.ingestStats,
		History:        m.recorder.snapshot,
		MaxSnapshotAge: maxAge,
		Weight:         m.tn.Weight(),
		RateQPS:        m.tn.Limiter.Rate(),
		RateBurst:      m.tn.Limiter.Burst(),
	}
	if m.tn.Limiter != nil {
		st.Limiter = m.tn.Limiter
	}
	if deepHistory {
		st.HistoryScan = m.recorder.scan
	}
	if m.durable != nil {
		st.Durability = m.durable.stats
	}
	return st
}

// overlaySpec overlays a tenant's overrides on a base engine spec
// (the flags, possibly already overlaid with -config): zero-valued
// spec fields inherit the base.
func overlaySpec(es engineSpec, sp tenant.Spec) engineSpec {
	if sp.Trace != "" {
		es.trace = sp.Trace
	}
	if sp.Model != "" {
		es.model = sp.Model
	}
	if sp.Alpha != 0 {
		es.alpha = sp.Alpha
	}
	if sp.S0 != 0 {
		es.s0 = sp.S0
	}
	if sp.Theta != 0 {
		es.theta = sp.Theta
	}
	if sp.Strategy != "" {
		es.strategy = sp.Strategy
	}
	if sp.Tiers != 0 {
		es.tiers = sp.Tiers
	}
	if sp.Blended != 0 {
		es.blended = sp.Blended
	}
	if sp.DemandSec != 0 {
		es.demandSec = sp.DemandSec
	}
	return es
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
		m.recorder.record(snap)
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

// ingestStdin feeds a concatenated export stream (tracegen -stdout) into
// the router; at EOF every member re-prices immediately so piped replays
// serve quotes without waiting out the next tick.
func (d *daemon) ingestStdin(ctx context.Context, stdin io.Reader) {
	rd := netflow.NewReader(bufio.NewReader(stdin))
	for ctx.Err() == nil {
		h, recs, err := rd.Next()
		if err == io.EOF {
			for _, m := range d.members {
				m.repriceOnce(ctx)
			}
			fmt.Fprintln(os.Stderr, "tierd: stdin stream complete, snapshots published")
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tierd: stdin:", err)
			return
		}
		d.sink.Ingest(h, recs)
	}
}
