// Package histstore holds tierd's tier-table time series, the one
// record /v1/history serves: every published TierTable (and the
// pricing-config epoch it was produced under) becomes one row keyed by
// (tenant, epoch).
//
// A file store (Open, store.go) is one append-only file of CRC-framed
// transactions with a resident (tenant, epoch) index: appends are staged
// in memory and group-committed off the caller's path — one write and
// one fsync per batch, so a re-price never pays a syscall — scans see
// staged rows immediately, and pruning rewrites the file with the live
// rows only (appends and scans wait while it does). A memory store
// (NewMemory) is the same index without the file. Either may bound each
// tenant's series to its newest Options.MaxRows rows.
package histstore

import (
	"encoding/json"
	"sort"
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

// Query selects a slice of one tenant's series by epoch range. It is
// the one definition of /v1/history's range semantics: Scan selects
// through Range.
type Query struct {
	// SinceEpoch and UntilEpoch bound the scan inclusively; zero means
	// unbounded on that side.
	SinceEpoch int64
	UntilEpoch int64
	// Limit caps the returned entries; when more match, the newest
	// Limit are kept (still returned oldest-first). <= 0 is unlimited.
	Limit int
}

// Range selects q from an oldest-first series of n entries whose i-th
// epoch is epochAt(i), epochs strictly ascending: the series' [lo, hi)
// is what q returns. An empty selection has lo == hi.
func (q Query) Range(n int, epochAt func(int) int64) (lo, hi int) {
	if q.SinceEpoch > 0 {
		lo = sort.Search(n, func(i int) bool { return epochAt(i) >= q.SinceEpoch })
	}
	hi = n
	if q.UntilEpoch > 0 {
		hi = sort.Search(n, func(i int) bool { return epochAt(i) > q.UntilEpoch })
	}
	if lo >= hi {
		return lo, lo
	}
	if q.Limit > 0 && hi-lo > q.Limit {
		lo = hi - q.Limit // newest Limit, still oldest-first
	}
	return lo, hi
}

// Stats is a point-in-time view of a store for /metrics.
type Stats struct {
	// Entries and Bytes count the live rows (all tenants) and their
	// encoded size.
	Entries uint64
	Bytes   uint64
	// Appends are rows accepted; Dupes are appends ignored because the
	// (tenant, epoch) key already existed (the idempotent back-fill of
	// an old checkpoint's history); AppendErrors are group commits that
	// failed to reach the file.
	Appends      uint64
	Dupes        uint64
	AppendErrors uint64
	// Flushes counts group commits (one fsync each); Compactions counts
	// file rewrites (pruning, or trimmed rows outweighing live ones).
	Flushes     uint64
	Compactions uint64
	// Pruned counts rows removed by retention policy: Prune's age
	// cutoff and the MaxRows bound.
	Pruned uint64
	// Scans counts Scan calls served.
	Scans uint64
	// OpenTornBytes is how many trailing bytes open-time recovery
	// distrusted and discarded (torn final transaction frame).
	OpenTornBytes uint64
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
	// Now is the store's clock (Prune's cutoff); nil selects time.Now.
	Now func() time.Time
	// MaxRows keeps each tenant's newest MaxRows rows and drops older
	// ones, at Open and on every Append; 0 keeps every row.
	MaxRows int
}
