package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tieredpricing/internal/histstore"
	"tieredpricing/internal/stream"
)

// defaultHistoryRing is -history-ring's default: the rows per tenant a
// history store keeps when -history-store is unset.
const defaultHistoryRing = 512

// openHistory opens the process's one tier-history store, shared by
// every tenant (rows are namespaced by the tenant column): the file at
// -history-store, bounded only by -history-retain; else
// <data-dir>/history.db, which keeps the newest -history-ring rows per
// tenant across a kill -9; else a memory store with the same bound.
func openHistory(cfg config) (*histstore.Store, error) {
	opts := histstore.Options{MaxRows: cfg.historyRing}
	if opts.MaxRows < 1 {
		opts.MaxRows = defaultHistoryRing
	}
	switch {
	case cfg.historyStore != "":
		return histstore.Open(cfg.historyStore, histstore.Options{})
	case cfg.dataDir != "":
		return histstore.Open(filepath.Join(cfg.dataDir, "history.db"), opts)
	}
	return histstore.NewMemory(opts), nil
}

// recordHistory appends a newly published snapshot's table to the
// history store under the current config epoch. A failed append keeps
// the daemon serving: it shows on stderr and, for a file that cannot be
// written, in tierd_history_append_errors_total.
func (m *member) recordHistory(snap *stream.Snapshot) {
	table, err := snap.Table.Marshal()
	if err == nil {
		err = m.history.Append(histstore.Entry{
			Tenant: m.spec.ID, Epoch: snap.Epoch, ConfigEpoch: m.configEpoch(), At: snap.FittedAt, Table: table,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tierd: history store:", err)
	}
}

// backfillHistory appends the history series a checkpoint written
// before the store was tierd's only history carried (raw decodes as
// histstore.Entry rows) under tenant. The store keeps the first-written
// row of each (tenant, epoch), so rows it already holds stay as they
// are and a repeated back-fill — a crash before the next checkpoint
// replaces the old one — adds nothing. A config epoch of 0 predates
// hot reload and reads as 1.
func backfillHistory(store *histstore.Store, tenant string, raw json.RawMessage) {
	if len(raw) == 0 {
		return
	}
	var rows []histstore.Entry
	if err := json.Unmarshal(raw, &rows); err != nil {
		fmt.Fprintln(os.Stderr, "tierd: history back-fill:", err)
		return
	}
	for _, e := range rows {
		e.Tenant, e.ConfigEpoch = tenant, max(e.ConfigEpoch, 1)
		if err := store.Append(e); err != nil {
			fmt.Fprintln(os.Stderr, "tierd: history back-fill:", err)
			return
		}
	}
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
