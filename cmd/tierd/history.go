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
// bounded in-memory ring is a cache: it serves shallow /v1/history
// queries without touching disk and rides along in checkpoints, while
// every published table is also appended to the durable store (when
// one is configured), which outlives checkpoint retention and serves
// deep range queries. The store append is idempotent on
// (tenant, epoch), so replaying the ring into the store after a
// restore from an older checkpoint is a no-op for rows the store
// already has — history cannot double-append across crashes.
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

// snapshot copies the ring for GET /v1/history's shallow path.
func (r *histRecorder) snapshot() []server.HistoryEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]server.HistoryEntry, len(r.ring))
	copy(out, r.ring)
	return out
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

// scan serves a deep /v1/history range query from the store.
func (r *histRecorder) scan(q server.HistoryQuery) ([]server.HistoryEntry, error) {
	rows, err := r.store.Scan(r.tenant, histstore.Query{
		SinceEpoch: q.Since, UntilEpoch: q.Until, Limit: q.Limit,
	})
	if err != nil {
		return nil, err
	}
	out := make([]server.HistoryEntry, 0, len(rows))
	for _, row := range rows {
		out = append(out, server.HistoryEntry{At: row.At, Epoch: row.Epoch, ConfigEpoch: row.ConfigEpoch, Table: row.Table})
	}
	return out, nil
}

// startPruneLoop applies -history-retain to the store periodically
// (age-based retention; pruning compacts the store file). Returns a
// stop function, or nil when no retention is configured.
func (d *daemon) startPruneLoop() func() {
	if d.histStore == nil || d.cfg.historyRetain <= 0 {
		return nil
	}
	interval := d.cfg.historyRetain / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	if interval < time.Second {
		interval = time.Second
	}
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
				if _, err := d.histStore.Prune(histstore.Retention{MaxAge: d.cfg.historyRetain}); err != nil {
					fmt.Fprintln(os.Stderr, "tierd: history prune:", err)
				}
			}
		}
	}()
	return func() { close(stopCh); <-done }
}
