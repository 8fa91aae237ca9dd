package server

import "time"

// RateLimiter admits or rejects one request on a tenant's quote path.
// A rejected request carries the Retry-After hint. tenant.Bucket
// implements it (including on a nil receiver, which admits everything).
type RateLimiter interface {
	Allow() (ok bool, retryAfter time.Duration)
}

// Tenant is one tenant's serving handle: the snapshot source, metric
// set, quota and telemetry callbacks the HTTP layer serves that tenant
// from. cmd/tierd builds one per fleet member; Config{Snapshots: src}
// builds a sole one named "default".
type Tenant struct {
	// ID names the tenant on the API: /v1/t/{ID}/... It must be unique
	// across Config.Tenants.
	ID string
	// Snapshots supplies the tenant's serving snapshot (required).
	Snapshots SnapshotSource
	// Metrics is the tenant's telemetry set; nil builds a fresh one.
	Metrics *Metrics
	// Ingest reports the tenant's routed-ingest counters: Packets is the
	// export datagrams the registry routed here, the rest are the
	// tenant's window counters. Nil omits the tenant's ingest rows.
	Ingest func() IngestStats
	// Durability reports the tenant's WAL/checkpoint counters; nil when
	// the tenant runs without a durability namespace.
	Durability func() DurabilityStats
	// History supplies the tenant's tier-table time series (the ring).
	History func() []HistoryEntry
	// HistoryScan serves deep /v1/history range queries from the
	// durable store; nil falls back to filtering History's ring.
	HistoryScan func(q HistoryQuery) ([]HistoryEntry, error)
	// Limiter guards the tenant's quote path; nil admits everything.
	Limiter RateLimiter
	// MaxSnapshotAge is the tenant's staleness policy: once the serving
	// snapshot is older, the tenant's health probe reports degraded (503)
	// and its quotes carry X-Tierd-Stale — quoting stays up on the last
	// good snapshot, but load balancers and callers can see the data is
	// old. Zero disables the policy.
	MaxSnapshotAge time.Duration
	// Weight is the tenant's configured share of the reprice pool,
	// exported so dashboards can normalize per-tenant reprice rates.
	Weight float64
	// RateQPS and RateBurst mirror the limiter's configuration for the
	// exposition (0 = unlimited).
	RateQPS   float64
	RateBurst float64

	// label is the rendered tenant="ID" pair on the tenant's /metrics
	// samples; New leaves it empty for a sole tenant.
	label string
}
