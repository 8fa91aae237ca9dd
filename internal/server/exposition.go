package server

import (
	"fmt"
	"io"
	"net/http"

	"tieredpricing/internal/histstore"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/tenant"
)

// sample is one exposition line of a metric family:
// name+suffix{tenant label,labels} value.
type sample struct {
	suffix string // appended to the family name (_bucket, _sum, _count)
	labels string // rendered label pairs beyond the tenant's, e.g. le="0.5"
	value  any    // uint64, int64, int or float64: %v renders integers as %d and floats as %g
}

// view is what one scrape reads for one label set: the process (the
// process-wide sources set) or one tenant (the per-tenant sources set).
// A source that is not wired stays nil and its section is skipped for
// the view.
type view struct {
	label string // the tenant's label pair; "" for the process and a sole tenant

	srv       *Server
	collector *IngestStats
	sched     *tenant.Stats
	histStore *histstore.Stats
	reload    *ReloadStats

	tenant *Tenant
	ingest *IngestStats
	dur    *DurabilityStats
	flow   *tenant.FlowStats
	snap   *stream.Snapshot
	age    float64 // snapshot age in seconds on the server's clock
	stale  int     // 1 when the snapshot exceeds the staleness policy
}

// family is one row of the /metrics table: a metric name with its one
// HELP/TYPE header and the getter that reads a view's sample(s) — a
// single value, a []sample for multi-line families, or nil for none.
type family struct {
	name, help, typ string
	get             func(*view) any
}

// exposition is the whole /metrics surface, one section per source.
// Every row renders once per view the section's source is wired on, so
// a process-wide family yields one unlabeled sample and a per-tenant
// family one sample per tenant under that tenant's label; a family no
// view has a sample for is omitted with its header.
var exposition = []struct {
	wired func(*view) bool
	rows  []family
}{
	{func(v *view) bool { return v.srv != nil }, []family{
		{"tierd_health_requests_total", "Health checks served.", "counter", func(v *view) any { return v.srv.proc.HealthRequests.Value() }},
		{"tierd_metrics_requests_total", "Metric scrapes served.", "counter", func(v *view) any { return v.srv.proc.MetricsRequests.Value() }},
		{"tierd_build_info", "Build metadata of the running binary (value is always 1).", "gauge", func(v *view) any {
			return []sample{{"", fmt.Sprintf("revision=%q,go_version=%q", v.srv.build.Revision, v.srv.build.GoVersion), 1}}
		}},
	}},
	{func(v *view) bool { return v.tenant != nil }, []family{
		{"tierd_quote_requests_total", "Quote requests served.", "counter", func(v *view) any { return v.tenant.Metrics.QuoteRequests.Value() }},
		{"tierd_quote_misses_total", "Quote requests with no matching bucket or route.", "counter", func(v *view) any { return v.tenant.Metrics.QuoteMisses.Value() }},
		{"tierd_tiers_requests_total", "Tier table requests served.", "counter", func(v *view) any { return v.tenant.Metrics.TiersRequests.Value() }},
		{"tierd_history_requests_total", "Tier-table history requests served.", "counter", func(v *view) any { return v.tenant.Metrics.HistoryRequests.Value() }},
		{"tierd_quote_stale_total", "Quotes served from a snapshot beyond the staleness policy.", "counter", func(v *view) any { return v.tenant.Metrics.QuoteStale.Value() }},
		{"tierd_quote_rate_limited_total", "Quote requests rejected by the tenant's rate limit (429s).", "counter", func(v *view) any { return v.tenant.Metrics.QuoteRateLimited.Value() }},
		{"tierd_reprices_total", "Re-price attempts.", "counter", func(v *view) any { return v.tenant.Metrics.Reprices.Value() }},
		{"tierd_reprice_failures_total", "Re-price attempts that failed (retries and ingest gaps included).", "counter", func(v *view) any { return v.tenant.Metrics.RepriceFailures.Value() }},
		{"tierd_reprice_flows", "Flows priced by the most recent re-price.", "gauge", func(v *view) any { return v.tenant.Metrics.RepriceFlows.Value() }},
		{"tierd_reprice_consecutive_failures", "Consecutive failed re-price attempts (0 while healthy).", "gauge", func(v *view) any { return v.tenant.Metrics.ConsecutiveFailures.Value() }},
		{"tierd_quote_seconds", "Server-side quote latency.", "histogram", func(v *view) any { return v.tenant.Metrics.QuoteSeconds.samples() }},
		{"tierd_reprice_seconds", "Re-price latency.", "histogram", func(v *view) any { return v.tenant.Metrics.RepriceSeconds.samples() }},
		{"tierd_reprice_stage_seconds", "Wall time of each re-price pipeline stage, over published snapshots.", "summary", func(v *view) any {
			m := v.tenant.Metrics
			out := make([]sample, 0, 2*stream.NumStages)
			for s := stream.Stage(0); s < stream.NumStages; s++ {
				label := fmt.Sprintf("stage=%q", s)
				out = append(out,
					sample{"_sum", label, float64(m.RepriceStageNanos[s].Value()) / 1e9},
					sample{"_count", label, m.RepriceStaged.Value()})
			}
			return out
		}},
		{"tierd_reprice_rows_total", "Window rows of published re-prices, by what the epoch found: new, changed, retired or unchanged.", "counter", func(v *view) any {
			out := make([]sample, len(rowStates))
			for i, state := range rowStates {
				out[i] = sample{"", fmt.Sprintf("state=%q", state), v.tenant.Metrics.RepriceRows[i].Value()}
			}
			return out
		}},
		{"tierd_tenant_weight", "Configured weighted-fair share of the reprice pool.", "gauge", func(v *view) any { return v.tenant.Weight }},
		{"tierd_quote_rate_limit_qps", "Configured sustained quote quota (0 = unlimited).", "gauge", func(v *view) any { return v.tenant.RateQPS }},
		{"tierd_quote_rate_limit_burst", "Configured quote burst capacity (0 = unlimited).", "gauge", func(v *view) any { return v.tenant.RateBurst }},
	}},
	// The collector's datagram counters are process-wide (its sockets
	// feed the router); record counters are per tenant.
	{func(v *view) bool { return v.collector != nil }, []family{
		{"tierd_ingest_packets_total", "Export datagrams received.", "counter", func(v *view) any { return v.collector.Packets }},
		{"tierd_ingest_bad_packets_total", "Datagrams that failed to decode.", "counter", func(v *view) any { return v.collector.BadPackets }},
		{"tierd_ingest_socket_drops_total", "Datagrams the kernel dropped on full UDP receive buffers.", "counter", func(v *view) any { return v.collector.SocketDrops }},
	}},
	{func(v *view) bool { return v.ingest != nil }, []family{
		{"tierd_ingest_routed_packets_total", "Export datagrams routed to the tenant.", "counter", func(v *view) any { return v.ingest.Packets }},
		{"tierd_ingest_records_total", "Flow records ingested into the window.", "counter", func(v *view) any { return v.ingest.Records }},
		{"tierd_ingest_duplicates_total", "Cross-router duplicates suppressed.", "counter", func(v *view) any { return v.ingest.Duplicates }},
		{"tierd_ingest_dropped_total", "Records with no aggregation bucket.", "counter", func(v *view) any { return v.ingest.Dropped }},
	}},
	{func(v *view) bool { return v.sched != nil }, []family{
		{"tierd_sched_queue_depth", "Reprice jobs queued (bounded by the tenant count).", "gauge", func(v *view) any { return v.sched.QueueDepth }},
		{"tierd_sched_dispatched_total", "Reprice jobs dispatched by the scheduler.", "counter", func(v *view) any { return v.sched.Dispatched }},
		{"tierd_sched_coalesced_total", "Reprice submissions coalesced into an already-queued job.", "counter", func(v *view) any { return v.sched.Coalesced }},
		{"tierd_sched_starved_total", "Jobs dispatched by the starvation bound rather than their fair tag.", "counter", func(v *view) any { return v.sched.Starved }},
	}},
	{func(v *view) bool { return v.flow != nil }, []family{
		{"tierd_sched_tenant_dispatched_total", "Reprice jobs dispatched for the tenant.", "counter", func(v *view) any { return v.flow.Dispatched }},
		{"tierd_sched_tenant_coalesced_total", "Reprice submissions coalesced for the tenant.", "counter", func(v *view) any { return v.flow.Coalesced }},
		{"tierd_sched_tenant_starved_total", "Starvation-bound dispatches for the tenant.", "counter", func(v *view) any { return v.flow.Starved }},
		{"tierd_sched_tenant_last_wait_seconds", "Queue wait of the tenant's last dispatched job.", "gauge", func(v *view) any { return v.flow.LastWait.Seconds() }},
		{"tierd_sched_tenant_cost_seconds", "Smoothed reprice cost estimate driving the tenant's fair tags.", "gauge", func(v *view) any { return v.flow.CostSeconds }},
	}},
	{func(v *view) bool { return v.dur != nil }, []family{
		{"tierd_wal_bytes_total", "Bytes appended to the write-ahead log.", "counter", func(v *view) any { return v.dur.WALBytes }},
		{"tierd_wal_entries_total", "Entries appended to the write-ahead log.", "counter", func(v *view) any { return v.dur.WALEntries }},
		{"tierd_wal_fsyncs_total", "WAL fsync syscalls issued.", "counter", func(v *view) any { return v.dur.WALFsyncs }},
		{"tierd_wal_fsync_seconds", "WAL fsync latency.", "summary", func(v *view) any {
			return []sample{
				{"", `quantile="0.5"`, v.dur.WALFsyncP50},
				{"", `quantile="0.99"`, v.dur.WALFsyncP99},
				{"_sum", "", v.dur.WALFsyncSum},
				{"_count", "", v.dur.WALFsyncs},
			}
		}},
		{"tierd_wal_fsync_max_seconds", "Worst WAL fsync latency observed.", "gauge", func(v *view) any { return v.dur.WALFsyncMax }},
		{"tierd_checkpoints_total", "Checkpoints written since boot.", "counter", func(v *view) any { return v.dur.Checkpoints }},
		{"tierd_checkpoint_age_seconds", "Seconds since the newest checkpoint.", "gauge", func(v *view) any {
			if v.dur.CheckpointAge < 0 {
				return nil // none taken yet
			}
			return v.dur.CheckpointAge
		}},
		{"tierd_recovery_replayed_total", "WAL entries replayed during boot recovery.", "counter", func(v *view) any { return v.dur.RecoveryReplayed }},
		{"tierd_recovery_torn_bytes_total", "Trailing WAL bytes recovery distrusted and discarded.", "counter", func(v *view) any { return v.dur.RecoveryTornBytes }},
		{"tierd_durability_errors_total", "Failed durable writes (WAL appends, WAL fsyncs, checkpoints) served through from memory.", "counter", func(v *view) any { return v.dur.Errors }},
	}},
	// The durable history store and the config hot-reload state are one
	// per process, so both stay unlabeled.
	{func(v *view) bool { return v.histStore != nil }, []family{
		{"tierd_history_entries", "Rows live in the durable tier-history store.", "gauge", func(v *view) any { return v.histStore.Entries }},
		{"tierd_history_bytes", "Encoded size of the live tier-history rows.", "gauge", func(v *view) any { return v.histStore.Bytes }},
		{"tierd_history_appends_total", "Tier-history rows accepted for append.", "counter", func(v *view) any { return v.histStore.Appends }},
		{"tierd_history_dupes_total", "Appends ignored because the (tenant, epoch) key already existed.", "counter", func(v *view) any { return v.histStore.Dupes }},
		{"tierd_history_append_errors_total", "Tier-history appends that failed to reach durable storage.", "counter", func(v *view) any { return v.histStore.AppendErrors }},
		{"tierd_history_flushes_total", "Group commits of staged tier-history rows (one fsync each).", "counter", func(v *view) any { return v.histStore.Flushes }},
		{"tierd_history_compactions_total", "History file rewrites triggered by retention pruning.", "counter", func(v *view) any { return v.histStore.Compactions }},
		{"tierd_history_pruned_total", "Tier-history rows removed by retention policy.", "counter", func(v *view) any { return v.histStore.Pruned }},
		{"tierd_history_scans_total", "Tier-history range scans served.", "counter", func(v *view) any { return v.histStore.Scans }},
		{"tierd_history_torn_bytes_total", "Trailing history-file bytes open-time recovery distrusted and discarded.", "counter", func(v *view) any { return v.histStore.OpenTornBytes }},
	}},
	{func(v *view) bool { return v.reload != nil }, []family{
		{"tierd_config_epoch", "Pricing-config epoch (1 at boot, +1 per successful hot reload).", "gauge", func(v *view) any { return v.reload.ConfigEpoch }},
		{"tierd_config_reloads_total", "Successful config hot reloads.", "counter", func(v *view) any { return v.reload.Reloads }},
		{"tierd_config_reload_errors_total", "Config reloads rejected (invalid file or config; the running config stayed active).", "counter", func(v *view) any { return v.reload.ReloadErrors }},
	}},
	{func(v *view) bool { return v.snap != nil }, []family{
		{"tierd_snapshot_epoch", "Epoch of the serving snapshot.", "gauge", func(v *view) any { return v.snap.Epoch }},
		{"tierd_snapshot_flows", "Flows priced in the serving snapshot.", "gauge", func(v *view) any { return v.snap.Table.Flows }},
		{"tierd_snapshot_tiers", "Tiers in the serving snapshot.", "gauge", func(v *view) any { return len(v.snap.Table.Tiers) }},
		{"tierd_snapshot_age_seconds", "Age of the serving snapshot.", "gauge", func(v *view) any { return v.age }},
		{"tierd_snapshot_stale", "Whether the serving snapshot exceeds the staleness policy (1 = degraded).", "gauge", func(v *view) any { return v.stale }},
	}},
}

// scrape reads every wired source once: the process view first, then
// one view per tenant in configuration order.
func (s *Server) scrape() []*view {
	p := &view{srv: s}
	if s.ingest != nil {
		in := s.ingest()
		p.collector = &in
	}
	var flows []tenant.FlowStats
	if s.sched != nil {
		var st tenant.Stats
		st, flows = s.sched()
		p.sched = &st
	}
	if s.histStore != nil {
		h := s.histStore()
		p.histStore = &h
	}
	if s.reload != nil {
		rl := s.reload()
		p.reload = &rl
	}
	views := append(make([]*view, 0, 1+len(s.tenants)), p)
	for _, t := range s.tenants {
		v := &view{label: t.label, tenant: t}
		if t.Ingest != nil {
			in := t.Ingest()
			v.ingest = &in
		}
		if t.Durability != nil {
			d := t.Durability()
			v.dur = &d
		}
		for i := range flows {
			if flows[i].ID == t.ID {
				v.flow = &flows[i]
				break
			}
		}
		if snap := t.Snapshots.Current(); snap != nil {
			v.snap = snap
			v.age = s.snapshotAge(snap).Seconds()
			if s.staleFor(t, snap) {
				v.stale = 1
			}
		}
		views = append(views, v)
	}
	return views
}

// handleMetrics renders the exposition table over one scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.proc.MetricsRequests.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	views := s.scrape()
	for _, sec := range exposition {
		for _, f := range sec.rows {
			header := false
			for _, v := range views {
				if !sec.wired(v) {
					continue
				}
				got := f.get(v)
				samples, multi := got.([]sample)
				if !multi && got != nil {
					samples = []sample{{value: got}}
				}
				if len(samples) > 0 && !header {
					header = true
					fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
				}
				writeSamples(w, f.name, v.label, samples)
			}
		}
	}
}

// writeSamples renders one view's lines of a family, the view's label
// pair ahead of each sample's own.
func writeSamples(w io.Writer, name, label string, samples []sample) {
	for _, sm := range samples {
		labels := label
		if labels != "" && sm.labels != "" {
			labels += ","
		}
		if labels += sm.labels; labels != "" {
			labels = "{" + labels + "}"
		}
		fmt.Fprintf(w, "%s%s%s %v\n", name, sm.suffix, labels, sm.value)
	}
}
