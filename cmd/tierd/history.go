package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"tieredpricing/internal/checkpoint"
	"tieredpricing/internal/histstore"
	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
)

// defaultHistoryRing bounds the in-memory tier-table ring when the
// -history-ring flag is unset (the pre-store maxHistory value, so a
// seed deployment's checkpoints keep the same history depth).
const defaultHistoryRing = 512

// histRecorder owns one pricing engine's tier-table history. The
// bounded in-memory ring rides along in checkpoints and answers
// /v1/history when no store is configured; every published table is
// also appended to the durable store (when one is configured), which
// outlives checkpoint retention and then answers every range query.
// The store append is idempotent on (tenant, epoch), so replaying the
// ring into the store after a restore from an older checkpoint is a
// no-op for rows the store already has — history cannot double-append
// across crashes.
type histRecorder struct {
	tenant   string
	max      int
	store    *histstore.Store // nil = ring-only (no -history-store)
	cfgEpoch func() int64     // process-wide pricing-config generation

	mu        sync.Mutex
	ring      []server.HistoryEntry
	lastEpoch int64 // newest epoch recorded (ring and store agree)
}

func newHistRecorder(tenant string, max int, store *histstore.Store, cfgEpoch func() int64) *histRecorder {
	if max < 1 {
		max = defaultHistoryRing
	}
	if cfgEpoch == nil {
		cfgEpoch = func() int64 { return 1 }
	}
	return &histRecorder{tenant: tenant, max: max, store: store, cfgEpoch: cfgEpoch}
}

// record appends a newly published snapshot's table to the ring and
// the store (one entry per epoch; replays of an already-recorded epoch
// are ignored). Store append failures keep the daemon serving — the
// ring still has the entry and the error surfaces via the store's
// append-error counter and stderr.
func (r *histRecorder) record(snap *stream.Snapshot) {
	if snap == nil {
		return
	}
	table, err := snap.Table.Marshal()
	if err != nil {
		return
	}
	ce := r.cfgEpoch()
	e := server.HistoryEntry{At: snap.FittedAt, Epoch: snap.Epoch, ConfigEpoch: ce, Table: json.RawMessage(table)}

	r.mu.Lock()
	if snap.Epoch <= r.lastEpoch {
		r.mu.Unlock()
		return
	}
	r.lastEpoch = snap.Epoch
	r.ring = append(r.ring, e)
	if len(r.ring) > r.max {
		r.ring = r.ring[len(r.ring)-r.max:]
	}
	r.mu.Unlock()

	if r.store != nil {
		if err := r.store.Append(histstore.Entry{
			Tenant: r.tenant, Epoch: e.Epoch, ConfigEpoch: ce, At: e.At, Table: e.Table,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tierd: history store:", err)
		}
	}
}

// restore seeds the ring from a checkpoint's history series and
// replays it into the store. lastEpoch is the checkpoint's serving
// epoch — the high-water mark below which record calls are replays.
// The store replay is where idempotence earns its keep: after a crash
// recovered from an older checkpoint, the store already holds rows the
// checkpoint predates, and the (tenant, epoch) key keeps the
// first-written row for each.
func (r *histRecorder) restore(entries []checkpoint.HistoryEntry, lastEpoch int64) {
	r.mu.Lock()
	r.ring = r.ring[:0]
	for _, he := range entries {
		ce := he.ConfigEpoch
		if ce == 0 {
			ce = 1 // pre-reload checkpoint: everything was generation 1
		}
		r.ring = append(r.ring, server.HistoryEntry{At: he.At, Epoch: he.Epoch, ConfigEpoch: ce, Table: he.Table})
	}
	if len(r.ring) > r.max {
		r.ring = r.ring[len(r.ring)-r.max:]
	}
	if lastEpoch > r.lastEpoch {
		r.lastEpoch = lastEpoch
	}
	ring := append([]server.HistoryEntry(nil), r.ring...)
	r.mu.Unlock()

	if r.store == nil {
		return
	}
	for _, e := range ring {
		if err := r.store.Append(histstore.Entry{
			Tenant: r.tenant, Epoch: e.Epoch, ConfigEpoch: e.ConfigEpoch, At: e.At, Table: e.Table,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tierd: history store backfill:", err)
			return
		}
	}
}

// checkpointEntries copies the ring in checkpoint form.
func (r *histRecorder) checkpointEntries() []checkpoint.HistoryEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]checkpoint.HistoryEntry, 0, len(r.ring))
	for _, e := range r.ring {
		out = append(out, checkpoint.HistoryEntry{At: e.At, Epoch: e.Epoch, Table: e.Table, ConfigEpoch: e.ConfigEpoch})
	}
	return out
}

// query answers GET /v1/history: from the store when one is
// configured (it reaches every retained epoch, far past the ring), else
// from the ring, under the same histstore.Query semantics.
func (r *histRecorder) query(q histstore.Query) ([]server.HistoryEntry, error) {
	if r.store == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		lo, hi := q.Range(len(r.ring), func(i int) int64 { return r.ring[i].Epoch })
		return append([]server.HistoryEntry(nil), r.ring[lo:hi]...), nil
	}
	rows, err := r.store.Scan(r.tenant, q)
	if err != nil {
		return nil, err
	}
	out := make([]server.HistoryEntry, 0, len(rows))
	for _, row := range rows {
		out = append(out, server.HistoryEntry{At: row.At, Epoch: row.Epoch, ConfigEpoch: row.ConfigEpoch, Table: row.Table})
	}
	return out, nil
}

// pruneHistory applies -history-retain to the store (age-based
// retention; pruning compacts the store file). The daemon runs it
// every pruneInterval.
func (d *daemon) pruneHistory() {
	if _, err := d.histStore.Prune(d.cfg.historyRetain); err != nil {
		fmt.Fprintln(os.Stderr, "tierd: history prune:", err)
	}
}

// pruneInterval is a quarter of the retention, clamped to [1s, 1m].
func pruneInterval(retain time.Duration) time.Duration {
	return min(max(retain/4, time.Second), time.Minute)
}
