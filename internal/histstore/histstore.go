// Package histstore persists the tier-table time series beyond the
// checkpoint retention window: every published TierTable (and the
// pricing-config epoch it was produced under) becomes one durable row
// keyed by (tenant, epoch), queryable long after the in-memory history
// ring and the checkpoints that carried it have rotated away.
//
// The Store interface is deliberately database-shaped — open by DSN,
// tenant column, range scans with limits, retention pruning — so a
// server-backed implementation (PostgreSQL) can slot in behind the same
// call sites. The implementation this repo ships is the embedded
// engine in sqlite.go: a single-file, pure-Go store that follows
// SQLite's WAL-mode discipline (appends group-commit into a write-ahead
// file, which is periodically folded into the main file; pruning
// compacts the main file without blocking appends). The repo vendors
// no cgo and no third-party drivers, so "sqlite:" DSNs select that
// engine and every other scheme is rejected as unknown.
package histstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Entry is one row of the tier-table time series: the canonical
// stream.TierTable bytes exactly as /v1/tiers served them at that
// epoch, plus the pricing-config epoch the table was produced under.
type Entry struct {
	// Tenant namespaces the series; the single-tenant daemon writes
	// under "default".
	Tenant string `json:"tenant"`
	// Epoch is the snapshot epoch — the unique key within a tenant.
	Epoch int64 `json:"epoch"`
	// ConfigEpoch identifies the pricing configuration (initial boot
	// config = 1; each successful hot reload increments it).
	ConfigEpoch int64 `json:"config_epoch,omitempty"`
	// At is when the snapshot was published.
	At time.Time `json:"at"`
	// Table is the canonical TierTable JSON.
	Table json.RawMessage `json:"table"`
}

// Query selects a slice of one tenant's series by epoch range.
type Query struct {
	// SinceEpoch and UntilEpoch bound the scan inclusively; zero means
	// unbounded on that side.
	SinceEpoch int64
	UntilEpoch int64
	// Limit caps the returned entries; when more match, the newest
	// Limit are kept (still returned oldest-first). <= 0 is unlimited.
	Limit int
}

// Retention is a Prune policy. Zero fields mean "keep everything" on
// that axis.
type Retention struct {
	// MaxEntries bounds each tenant's row count (oldest epochs drop).
	MaxEntries int
	// MaxAge drops entries whose At is older than now-MaxAge.
	MaxAge time.Duration
}

// Stats is a point-in-time view of a store for /metrics.
type Stats struct {
	// Entries and Bytes count the live rows (all tenants) and their
	// encoded size.
	Entries uint64
	Bytes   uint64
	// Appends are rows accepted; Dupes are appends ignored because the
	// (tenant, epoch) key already existed (the idempotent re-append
	// path after a restore from an older checkpoint); AppendErrors are
	// appends that failed to reach the write-ahead file.
	Appends      uint64
	Dupes        uint64
	AppendErrors uint64
	// Flushes counts group commits (one fsync each); Folds counts
	// WAL-into-main-file checkpoints; Compactions counts main-file
	// rewrites (pruning).
	Flushes     uint64
	Folds       uint64
	Compactions uint64
	// Pruned counts rows removed by retention policy.
	Pruned uint64
	// Scans counts Scan calls served.
	Scans uint64
	// OpenTornBytes is how many trailing bytes open-time recovery
	// distrusted and discarded (torn final transaction frame).
	OpenTornBytes uint64
}

// Store is the durable tier-history interface. Implementations must be
// safe for concurrent use. Append is idempotent on (Tenant, Epoch):
// re-appending an existing key is a no-op that keeps the first-written
// row, which is what makes replaying history after a restore from an
// older checkpoint safe.
type Store interface {
	// Append stages one row; rows are batch-committed off the caller's
	// path (group commit). Scan observes appended rows immediately.
	Append(e Entry) error
	// Scan returns the tenant's rows matching q, oldest-first.
	Scan(tenant string, q Query) ([]Entry, error)
	// Prune applies the retention policy across every tenant and
	// reports how many rows it removed.
	Prune(policy Retention) (removed int, err error)
	// Tenants lists the tenants with at least one row, sorted.
	Tenants() []string
	// Sync forces any staged rows to durable storage.
	Sync() error
	// Stats reports the store's counters.
	Stats() Stats
	// Close flushes and releases the store.
	Close() error
}

// Open dispatches a DSN to its driver:
//
//	sqlite:/var/lib/tierd/history.db   the embedded engine (also the
//	/var/lib/tierd/history.db          default for a bare path)
func Open(dsn string, opts Options) (Store, error) {
	if dsn == "" {
		return nil, errors.New("histstore: empty DSN")
	}
	switch {
	case strings.HasPrefix(dsn, "sqlite:"):
		return openSQLite(strings.TrimPrefix(dsn, "sqlite:"), opts)
	case strings.Contains(dsn, "://"):
		return nil, fmt.Errorf("histstore: unknown DSN scheme in %q", dsn)
	default:
		return openSQLite(dsn, opts)
	}
}

// Options tunes a store. The zero value selects the defaults.
type Options struct {
	// FlushInterval is the group-commit cadence: staged appends reach
	// durable storage at least this often (default 200ms). Negative
	// disables the background flusher (appends then persist on
	// FlushBytes overflow, Sync, or Close — the deterministic-test
	// configuration).
	FlushInterval time.Duration
	// FlushBytes triggers an immediate commit when the staged batch
	// exceeds it (default 256 KiB).
	FlushBytes int
	// FoldBytes is the write-ahead file size that triggers folding it
	// into the main file (default 4 MiB).
	FoldBytes int64
	// Now is the store's clock (Prune MaxAge); nil selects time.Now.
	Now func() time.Time
}
