package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"tieredpricing/internal/buildinfo"
	"tieredpricing/internal/histstore"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/tenant"
	"tieredpricing/internal/wal"
)

// SnapshotSource supplies the current pricing snapshot (nil before the
// first successful re-price). stream.Repricer implements it.
type SnapshotSource interface {
	Current() *stream.Snapshot
}

// IngestStats is a point-in-time view of the ingest pipeline for the
// /metrics endpoint: UDP datagrams and their decode failures, plus the
// window's record counters. Per-tenant views reuse the shape with
// Packets meaning "datagrams routed to this tenant".
type IngestStats struct {
	Packets    uint64
	BadPackets uint64
	Records    uint64
	Duplicates uint64
	Dropped    uint64
	// SocketDrops is the kernel's receive-queue drop count across the
	// collector's UDP sockets (datagrams lost before user space saw
	// them); zero where the platform exposes no counter.
	SocketDrops uint64
}

// DurabilityStats is a point-in-time view of the durability subsystem
// (WAL + checkpoints) for the /metrics endpoint. The zero value means
// "durability disabled" only through Tenant.Durability being nil; with
// a callback installed every field is live.
type DurabilityStats struct {
	// WAL is the log's own counters; the exposition renders its fsync
	// latencies in seconds.
	WAL wal.Stats
	// Checkpoints taken since boot; CheckpointAge is the seconds since
	// the newest one (negative = none yet, the age line is suppressed).
	Checkpoints   uint64
	CheckpointAge float64
	// RecoveryReplayed is the number of WAL entries replayed at boot,
	// RecoveryReplaySeconds how long that replay took, and
	// RecoveryTornBytes how many trailing WAL bytes recovery distrusted
	// and discarded.
	RecoveryReplayed      uint64
	RecoveryReplaySeconds float64
	RecoveryTornBytes     uint64
	// Errors counts durable writes that failed — WAL appends, WAL
	// fsyncs, checkpoint writes — while the daemon kept serving from
	// memory.
	Errors uint64
}

// HistoryLimitCap is the server-side ceiling on /v1/history responses:
// a request's limit parameter is clamped to it, and an absent or zero
// limit selects it, so a deep store scan can never become an unbounded
// response body.
const HistoryLimitCap = 1000

// ReloadStats is a point-in-time view of config hot-reload for
// /metrics: the process-wide pricing-config epoch (1 at boot, +1 per
// successful SIGHUP reload) and the reload outcome counters.
type ReloadStats struct {
	ConfigEpoch  int64
	Reloads      uint64
	ReloadErrors uint64
}

// Config wires a Server to its tenants and the process-wide telemetry
// sources. Per-tenant policy (staleness, durability, history, quota)
// lives on each Tenant handle.
type Config struct {
	// Tenants are the pricing engines served: every tenant gets
	// /v1/t/{id}/... routes, and the un-prefixed paths alias
	// DefaultTenant.
	Tenants []*Tenant
	// DefaultTenant names the tenant the un-prefixed paths alias; empty
	// selects the first entry of Tenants.
	DefaultTenant string
	// Sole marks Tenants as a fleet of one that the caller synthesised
	// rather than an operator configured: /metrics drops the tenant="…"
	// label pair and /healthz answers with the plain single-tenant body.
	// It requires exactly one tenant.
	Sole bool
	// Snapshots is shorthand for a sole tenant named "default" that
	// shares Metrics and Ingest with the process (Tenants must be empty).
	Snapshots SnapshotSource
	// Metrics receives the process-wide request telemetry (health
	// checks, metric scrapes); nil builds a fresh set.
	Metrics *Metrics
	// Ingest reports the shared collector's datagram counters (packets,
	// decode failures, socket drops) for /metrics; nil when no live
	// ingest is attached. Record counters come from each tenant's Ingest
	// callback.
	Ingest func() IngestStats
	// Now is the server's time source for snapshot age; nil selects
	// time.Now. Injectable for fault rehearsal and tests.
	Now func() time.Time
	// HistoryStore reports the tier-history store's counters for
	// /metrics; nil omits them. Process-wide: every tenant shares one
	// store.
	HistoryStore func() histstore.Stats
	// Reload reports config hot-reload state for /metrics; nil omits it.
	// Process-wide.
	Reload func() ReloadStats
	// Sched reports the weighted-fair reprice scheduler's counters and
	// its per-tenant telemetry for /metrics; nil omits the scheduler
	// block.
	Sched func() (tenant.Stats, []tenant.FlowStats)
	// Build identifies the running binary; the zero value is filled
	// from the embedded build metadata.
	Build buildinfo.Info
}

// Server serves tier quotes out of immutable pricing snapshots, one
// per tenant.
type Server struct {
	tenants []*Tenant
	byID    map[string]*Tenant
	def     *Tenant
	sole    bool // synthesised fleet of one: unlabeled exposition, plain /healthz

	proc      *Metrics                                  // process-wide counters (health, metrics scrapes)
	ingest    func() IngestStats                        // optional; process-wide datagram counters
	sched     func() (tenant.Stats, []tenant.FlowStats) // optional; reprice scheduler
	histStore func() histstore.Stats                    // optional; shared history store
	reload    func() ReloadStats                        // optional; config hot-reload state

	now      func() time.Time
	build    buildinfo.Info
	buildTag string // precomputed Info.String() for the X-Tierd-Build header
}

// New wires the API to its snapshot source(s).
func New(cfg Config) (*Server, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Build == (buildinfo.Info{}) {
		cfg.Build = buildinfo.Get()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	if cfg.Snapshots != nil {
		if len(cfg.Tenants) > 0 {
			return nil, errors.New("server: Tenants excludes the Snapshots shorthand")
		}
		cfg.Sole = true
		cfg.Tenants = []*Tenant{{ID: "default", Snapshots: cfg.Snapshots, Metrics: cfg.Metrics, Ingest: cfg.Ingest, Weight: 1}}
	}
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("server: no tenants (nil snapshot source)")
	}
	if cfg.Sole && len(cfg.Tenants) != 1 {
		return nil, fmt.Errorf("server: Sole needs exactly one tenant, got %d", len(cfg.Tenants))
	}
	s := &Server{
		tenants:   cfg.Tenants,
		byID:      make(map[string]*Tenant, len(cfg.Tenants)),
		sole:      cfg.Sole,
		proc:      cfg.Metrics,
		ingest:    cfg.Ingest,
		sched:     cfg.Sched,
		histStore: cfg.HistoryStore,
		reload:    cfg.Reload,
		now:       cfg.Now,
		build:     cfg.Build,
		buildTag:  cfg.Build.String(),
	}
	for _, t := range s.tenants {
		if t.ID == "" {
			return nil, errors.New("server: tenant with empty ID")
		}
		if _, dup := s.byID[t.ID]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", t.ID)
		}
		if t.Snapshots == nil {
			return nil, fmt.Errorf("server: tenant %q: nil snapshot source", t.ID)
		}
		if t.MaxSnapshotAge < 0 {
			return nil, fmt.Errorf("server: tenant %q: max snapshot age must not be negative, got %v", t.ID, t.MaxSnapshotAge)
		}
		if t.Metrics == nil {
			t.Metrics = NewMetrics()
		}
		if !s.sole {
			t.label = fmt.Sprintf("tenant=%q", t.ID)
		}
		s.byID[t.ID] = t
	}
	defID := cfg.DefaultTenant
	if defID == "" {
		defID = s.tenants[0].ID
	}
	def, ok := s.byID[defID]
	if !ok {
		return nil, fmt.Errorf("server: default tenant %q is not configured", defID)
	}
	s.def = def
	return s, nil
}

// snapshotAge is the age of snap on the server's clock.
func (s *Server) snapshotAge(snap *stream.Snapshot) time.Duration {
	return s.now().Sub(snap.FittedAt)
}

// staleFor reports whether the tenant's staleness policy considers snap
// too old.
func (s *Server) staleFor(t *Tenant, snap *stream.Snapshot) bool {
	return t.MaxSnapshotAge > 0 && s.snapshotAge(snap) > t.MaxSnapshotAge
}

// Handler builds the route table. The un-prefixed /v1 paths serve the
// default tenant; /v1/t/{tenant}/... scopes the same handlers to any
// configured tenant (including a sole tenant's "default").
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/quote", s.forDefault(s.handleQuote))
	mux.HandleFunc("/v1/tiers", s.forDefault(s.handleTiers))
	mux.HandleFunc("/v1/history", s.forDefault(s.handleHistory))
	mux.HandleFunc("/v1/debug/reprice", s.forDefault(s.handleDebugReprice))
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/t/{tenant}/quote", s.forTenant(s.handleQuote))
	mux.HandleFunc("/v1/t/{tenant}/tiers", s.forTenant(s.handleTiers))
	mux.HandleFunc("/v1/t/{tenant}/history", s.forTenant(s.handleHistory))
	mux.HandleFunc("/v1/t/{tenant}/healthz", s.forTenant(s.handleTenantHealth))
	mux.HandleFunc("/v1/t/{tenant}/debug/reprice", s.forTenant(s.handleDebugReprice))
	return mux
}

// forDefault binds a tenant-scoped handler to the default tenant (the
// un-prefixed routes).
func (s *Server) forDefault(h func(*Tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { h(s.def, w, r) }
}

// forTenant resolves the {tenant} path segment and binds the handler to
// that tenant; unknown IDs answer 404.
func (s *Server) forTenant(h func(*Tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.byID[r.PathValue("tenant")]
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("unknown tenant %q", r.PathValue("tenant"))})
			return
		}
		h(t, w, r)
	}
}

// quoteResponse is the /v1/quote body.
type quoteResponse struct {
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Tier   int     `json:"tier"`
	Price  float64 `json:"price_usd_per_mbps_month"`
	Source string  `json:"source"`
	Epoch  int64   `json:"epoch"`
}

// tiersResponse is the /v1/tiers body. Table carries the canonical
// stream.TierTable bytes unmodified, so clients (and the end-to-end
// consistency test) see exactly what the repricer published.
type tiersResponse struct {
	Epoch    int64           `json:"epoch"`
	FittedAt time.Time       `json:"fitted_at"`
	Skipped  int             `json:"skipped"`
	Table    json.RawMessage `json:"table"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body) // the connection is the only failure mode here
}

// parseFlow extracts the queried endpoints: either flow=src>dst (the
// aggregate-key shape) or separate src= and dst= parameters.
func parseFlow(r *http.Request) (src, dst netip.Addr, err error) {
	q := r.URL.Query()
	srcStr, dstStr := q.Get("src"), q.Get("dst")
	if flow := q.Get("flow"); flow != "" {
		var ok bool
		srcStr, dstStr, ok = strings.Cut(flow, ">")
		if !ok {
			return src, dst, fmt.Errorf("flow %q is not src>dst", flow)
		}
	}
	if srcStr == "" || dstStr == "" {
		return src, dst, errors.New("need flow=src>dst or src= and dst=")
	}
	if src, err = netip.ParseAddr(srcStr); err != nil {
		return src, dst, fmt.Errorf("src: %w", err)
	}
	if dst, err = netip.ParseAddr(dstStr); err != nil {
		return src, dst, fmt.Errorf("dst: %w", err)
	}
	return src, dst, nil
}

// retryAfterSeconds rounds the limiter's hint up to whole seconds for
// the Retry-After header (minimum 1 — the header has no sub-second
// syntax and 0 would invite an immediate retry storm).
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleQuote(t *Tenant, w http.ResponseWriter, r *http.Request) {
	// Server-side latency on the real clock (s.now is a policy clock that
	// tests freeze; freezing it must not zero the histogram).
	start := time.Now()
	defer func() { t.Metrics.QuoteSeconds.Observe(time.Since(start).Seconds()) }()
	t.Metrics.QuoteRequests.Inc()
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	if t.Limiter != nil {
		if ok, retry := t.Limiter.Allow(); !ok {
			t.Metrics.QuoteRateLimited.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
			writeJSON(w, http.StatusTooManyRequests, errorResponse{"rate limit exceeded"})
			return
		}
	}
	src, dst, err := parseFlow(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	snap := t.Snapshots.Current()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"no pricing snapshot yet"})
		return
	}
	if s.staleFor(t, snap) {
		// Degraded mode: the snapshot outlived the staleness policy but
		// quoting stays up on it — the caller sees the age, not a 5xx.
		t.Metrics.QuoteStale.Inc()
		w.Header().Set("X-Tierd-Stale", "true")
		w.Header().Set("X-Tierd-Snapshot-Age", fmt.Sprintf("%.3f", s.snapshotAge(snap).Seconds()))
	}
	q, ok := snap.Quote(src, dst)
	if !ok {
		t.Metrics.QuoteMisses.Inc()
		writeJSON(w, http.StatusNotFound, errorResponse{"flow matches no tier"})
		return
	}
	writeJSON(w, http.StatusOK, quoteResponse{
		Src:    src.String(),
		Dst:    dst.String(),
		Tier:   q.Tier,
		Price:  q.Price,
		Source: q.Source.String(),
		Epoch:  snap.Epoch,
	})
}

func (s *Server) handleTiers(t *Tenant, w http.ResponseWriter, r *http.Request) {
	t.Metrics.TiersRequests.Inc()
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	snap := t.Snapshots.Current()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"no pricing snapshot yet"})
		return
	}
	table, err := snap.Table.Marshal()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, tiersResponse{
		Epoch:    snap.Epoch,
		FittedAt: snap.FittedAt,
		Skipped:  snap.Skipped,
		Table:    table,
	})
}

// handleDebugReprice serves the tenant's last published re-prices' traces.
func (s *Server) handleDebugReprice(t *Tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	t.Metrics.traceMu.Lock()
	defer t.Metrics.traceMu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Reprices []repriceRecord `json:"reprices"`
	}{t.Metrics.traces})
}

// historyResponse is the /v1/history body.
type historyResponse struct {
	Entries []historyRow `json:"entries"`
}

// historyRow is one /v1/history entry on the wire: a histstore.Entry
// without its tenant, in the field order the API has always served.
type historyRow struct {
	At          time.Time       `json:"at"`
	Epoch       int64           `json:"epoch"`
	ConfigEpoch int64           `json:"config_epoch,omitempty"`
	Table       json.RawMessage `json:"table"`
}

// parseHistoryQuery validates the since/until/limit parameters.
// Each must be a non-negative decimal integer when present (anything
// else is a 400); an absent or zero limit selects the server-side cap,
// and larger requests are clamped to it.
func parseHistoryQuery(r *http.Request) (histstore.Query, error) {
	vals := r.URL.Query()
	parse := func(name string) (int64, error) {
		raw := vals.Get(name)
		if raw == "" {
			return 0, nil
		}
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %q is not an integer", name, raw)
		}
		if n < 0 {
			return 0, fmt.Errorf("%s must not be negative, got %d", name, n)
		}
		return n, nil
	}
	var q histstore.Query
	var err error
	if q.SinceEpoch, err = parse("since"); err != nil {
		return q, err
	}
	if q.UntilEpoch, err = parse("until"); err != nil {
		return q, err
	}
	limit, err := parse("limit")
	if err != nil {
		return q, err
	}
	if limit == 0 || limit > HistoryLimitCap {
		limit = HistoryLimitCap
	}
	q.Limit = int(limit)
	return q, nil
}

// handleHistory serves the tier-table time series, oldest first,
// bounded by ?since=&until=&limit= (epochs, inclusive, as
// histstore.Query selects them). The tenant's History callback decides
// where the series comes from.
func (s *Server) handleHistory(t *Tenant, w http.ResponseWriter, r *http.Request) {
	t.Metrics.HistoryRequests.Inc()
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	q, err := parseHistoryQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	var got []histstore.Entry
	if t.History != nil {
		if got, err = t.History(q); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
			return
		}
	}
	rows := make([]historyRow, len(got))
	for i, e := range got {
		rows[i] = historyRow{At: e.At, Epoch: e.Epoch, ConfigEpoch: e.ConfigEpoch, Table: e.Table}
	}
	writeJSON(w, http.StatusOK, historyResponse{Entries: rows})
}

// healthLine summarizes one tenant's serving health for /healthz: ok,
// warming up (no snapshot yet), or degraded (snapshot beyond the
// staleness policy).
func (s *Server) healthLine(t *Tenant) (ok bool, line string) {
	snap := t.Snapshots.Current()
	if snap == nil {
		return false, "warming up: no pricing snapshot yet"
	}
	if s.staleFor(t, snap) {
		return false, fmt.Sprintf("degraded: snapshot age %v exceeds %v",
			s.snapshotAge(snap).Round(time.Millisecond), t.MaxSnapshotAge)
	}
	return true, "ok"
}

// handleHealth is the process-wide probe. A sole tenant's probe is the
// process's. Otherwise the body carries one "<tenant>: <status>" line
// per tenant and the status code is 200 only when every tenant serves a
// fresh snapshot — a load balancer drains the whole process only when
// no tenant is healthy enough to matter, so the per-tenant probe is the
// better signal for tenant-level automation.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.sole {
		s.handleTenantHealth(s.def, w, r)
		return
	}
	s.proc.HealthRequests.Inc()
	w.Header().Set("X-Tierd-Build", s.buildTag)
	allOK := true
	var b strings.Builder
	for _, t := range s.tenants {
		ok, line := s.healthLine(t)
		if !ok {
			allOK = false
		}
		fmt.Fprintf(&b, "%s: %s\n", t.ID, line)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !allOK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = w.Write([]byte(b.String()))
}

// handleTenantHealth probes one tenant: body "ok", or 503 with the
// reason.
func (s *Server) handleTenantHealth(t *Tenant, w http.ResponseWriter, r *http.Request) {
	s.proc.HealthRequests.Inc()
	// Build attribution rides on every health response — including the
	// 503s — so probes and load generators can always tell which binary
	// answered. Headers must be set before any WriteHeader.
	w.Header().Set("X-Tierd-Build", s.buildTag)
	ok, line := s.healthLine(t)
	if !ok {
		http.Error(w, line, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
