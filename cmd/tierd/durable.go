package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tieredpricing/internal/checkpoint"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/wal"
)

// ckptRetain is how many checkpoints stay on disk, newest first; the
// older ones are fallbacks that boot falls back to past a corrupt newest.
const ckptRetain = 3

// durability owns tierd's persistent state: the write-ahead log every
// accepted datagram goes through and the periodic checkpoints that
// bound replay time. Tier-table history is not part of it: the
// daemon's history store (history.go) keeps it, and a checkpoint
// holds only the window, its WAL position and the two epochs.
//
// The central invariant is the pairing discipline: every datagram is
// logged and applied to the window under one lock, mu, which the
// checkpoint also holds across {WAL position read; window export}. The
// window therefore applies datagrams in WAL order, and a checkpoint
// covers exactly the WAL prefix its window state contains — never an
// entry the window hasn't applied, never an applied entry the WAL
// position excludes — which is what makes "restore checkpoint, replay
// WAL tail" reproduce the pre-crash window byte for byte.
type durability struct {
	walDir   string
	ckptDir  string
	tenantID string // stamps checkpoints in tenants/<id> namespaces ("" = a synthesised member's root layout)
	interval time.Duration
	now      func() time.Time

	log      *wal.Log
	window   *stream.Window
	repricer *stream.Repricer

	// mu pairs {WAL append; window apply} and {WAL position; window
	// export} (see above).
	mu sync.Mutex

	// kept is the WAL position of each checkpoint on disk, oldest first
	// and at most ckptRetain: a fallback replays from its own position,
	// so the log is truncated only before the oldest. Boot holds the zero
	// position ("keep everything") for each older file it did not decode,
	// until pruning retires them. Only checkpoint touches it, and its
	// callers never overlap.
	kept []wal.Position

	checkpoints       atomic.Uint64
	lastCkptNano      atomic.Int64
	recoveryReplayed  atomic.Uint64
	recoveryTornBytes atomic.Uint64
	recoverySeconds   float64 // the boot replay's duration, written before the daemon serves

	// Failed durable writes the daemon served through from memory: WAL
	// appends and checkpoint writes here, the WAL's background fsyncs in
	// log.Stats().SyncErrors. errsLogged is their sum as of the last log
	// line — the first failure is logged when it happens, the rest are
	// summarised once per checkpoint interval (reportErrors).
	appendErrs atomic.Uint64
	ckptErrs   atomic.Uint64
	errsLogged atomic.Uint64

	// configEpoch reads the process-wide pricing-config generation for
	// checkpoint framing.
	configEpoch func() int64
	// restoredConfigEpoch is the generation the restored checkpoint was
	// taken under (0 when booting fresh or from a pre-reload
	// checkpoint); the daemon fast-forwards its epoch counter, which
	// starts at 1, to at least this.
	restoredConfigEpoch int64
}

// openDurability recovers state from dir and returns the live
// subsystem: window and repricer are restored (newest valid checkpoint
// + WAL-tail replay through the window's own ingest path), the WAL is
// open for appending at the recovered end, and tick is ready to run as
// the daemon's checkpoint loop. A checkpoint in the old format hands
// the history it carries to backfill. A synthesised member passes dir =
// cfg.dataDir and an empty tenantID (the original
// <data-dir>/{wal,checkpoint} layout); a -tenants member passes its
// namespace directory and ID, which stamps checkpoints so a namespace
// mix-up is refused at boot.
func openDurability(cfg config, dir, tenantID string, w *stream.Window, rp *stream.Repricer,
	backfill func(json.RawMessage), configEpoch func() int64) (*durability, error) {
	d := &durability{
		walDir:      filepath.Join(dir, "wal"),
		ckptDir:     filepath.Join(dir, "checkpoint"),
		tenantID:    tenantID,
		interval:    cfg.ckptInterval,
		now:         cfg.now,
		window:      w,
		repricer:    rp,
		configEpoch: configEpoch,
	}
	if d.configEpoch == nil {
		d.configEpoch = func() int64 { return 1 }
	}
	if d.now == nil {
		d.now = time.Now
	}

	st, ckptPath, err := checkpoint.LoadNewestFunc(d.ckptDir, func(path string, err error) {
		fmt.Fprintf(os.Stderr, "tierd: skipped corrupt checkpoint %s: %v\n", path, err)
	})
	if err != nil {
		return nil, fmt.Errorf("loading checkpoint: %w", err)
	}
	var from wal.Position
	if st != nil {
		if st.Tenant != "" && tenantID != "" && st.Tenant != tenantID {
			return nil, fmt.Errorf("checkpoint %s belongs to tenant %q, not %q — wrong namespace?",
				ckptPath, st.Tenant, tenantID)
		}
		if err := w.Import(st.Window); err != nil {
			return nil, fmt.Errorf("restoring window from %s: %w", ckptPath, err)
		}
		from = st.WAL
		// The older files on disk are fallbacks the first checkpoint
		// after this boot must not truncate away.
		files, err := checkpoint.List(d.ckptDir)
		if err != nil {
			return nil, fmt.Errorf("listing checkpoints: %w", err)
		}
		older := min(max(slices.Index(files, ckptPath), 0), ckptRetain-1)
		d.kept = append(make([]wal.Position, older), from)
		rp.RestoreEpoch(st.Epoch)
		d.restoredConfigEpoch = st.ConfigEpoch
		backfill(st.History)
		fmt.Fprintf(os.Stderr, "tierd: restored checkpoint %s (epoch %d, %d slots, wal %d/%d)\n",
			filepath.Base(ckptPath), st.Epoch, len(st.Window.Slots), st.WAL.Segment, st.WAL.Offset)
	}

	// The replay decodes and prepares each entry here and applies it, in
	// log order, on the loader's goroutine.
	start := time.Now()
	ld := stream.NewLoader(w)
	res, err := wal.Replay(d.walDir, from, ld.Add)
	ld.Wait()
	took := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("replaying wal: %w", err)
	}
	d.recoveryReplayed.Store(uint64(res.Entries))
	d.recoverySeconds = took.Seconds()
	d.recoveryTornBytes.Store(uint64(res.TornBytes))
	if res.Entries > 0 || res.Torn {
		fmt.Fprintf(os.Stderr, "tierd: replayed %d wal entries in %v (%.0f entries/s; torn tail: %v, %d bytes discarded)\n",
			res.Entries, took.Round(10*time.Microsecond), float64(res.Entries)/took.Seconds(), res.Torn, res.TornBytes)
	}

	d.log, err = wal.OpenAt(d.walDir, wal.Options{Sync: cfg.walSync, OnSyncError: func(err error) {
		d.writeFailed(nil, "wal fsync", err) // the log counts it: Stats().SyncErrors
	}}, res.End)
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	return d, nil
}

// sink wraps the window as a netflow.Sink that logs before it applies:
// the arrival timestamp is captured once and used for both the WAL
// entry and the window slotting, so replaying the entry reproduces the
// original slotting decision exactly. The datagram is logged as one WAL
// entry and applied under the pairing lock.
func (d *durability) sink() netflow.Sink { return durableSink{d} }

type durableSink struct{ d *durability }

func (s durableSink) Ingest(h netflow.Header, recs []netflow.Record) {
	d := s.d
	ts := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.log.Append(ts, h, recs); err != nil {
		// Keep serving on the in-memory window; until the next good
		// checkpoint covers it, recovery would under-replay by this
		// datagram.
		d.writeFailed(&d.appendErrs, "wal append", err)
	}
	d.window.IngestAt(ts, h, recs)
}

// tick is one turn of the checkpoint loop: a checkpoint, then the
// summary of durable writes that failed since the last turn.
func (d *durability) tick() {
	if err := d.checkpoint(); err != nil {
		d.writeFailed(&d.ckptErrs, "checkpoint", err)
	}
	d.reportErrors()
}

// writeFailed counts one failed durable write in n (nil for a background
// fsync, which the WAL counts itself). The daemon's policy under a
// failing disk is to keep ingesting and quoting from memory and to say
// so without flooding: the first failure is logged with its cause, later
// ones only move tierd_durability_errors_total and reportErrors' summary.
func (d *durability) writeFailed(n *atomic.Uint64, what string, err error) {
	if n != nil {
		n.Add(1)
	}
	if d.errsLogged.CompareAndSwap(0, 1) {
		fmt.Fprintf(os.Stderr, "tierd: %s: %v — still ingesting and quoting from memory; further failures are counted in tierd_durability_errors_total and summarised every %s\n",
			what, err, d.interval)
	}
}

// reportErrors logs one summary line if durable writes failed since the
// last line. tick calls it once per checkpoint interval.
func (d *durability) reportErrors() {
	appends, fsyncs, ckpts := d.appendErrs.Load(), d.log.Stats().SyncErrors, d.ckptErrs.Load()
	total := appends + fsyncs + ckpts
	if prev := d.errsLogged.Swap(total); total > prev {
		fmt.Fprintf(os.Stderr, "tierd: %d more durable writes failed (since boot: %d wal appends, %d wal fsyncs, %d checkpoints)\n",
			total-prev, appends, fsyncs, ckpts)
	}
}

// checkpoint takes one snapshot: WAL position and window state are
// captured atomically under the pairing lock, framed with the serving
// and config epochs, written atomically, and old checkpoints are
// pruned, with the WAL segments wholly before the oldest retained one.
func (d *durability) checkpoint() error {
	d.mu.Lock()
	pos := d.log.Pos()
	ws := d.window.Export()
	d.mu.Unlock()

	st := &checkpoint.State{CreatedAt: d.now(), Tenant: d.tenantID, WAL: pos, Window: ws,
		ConfigEpoch: d.configEpoch()}
	if snap := d.repricer.Current(); snap != nil {
		st.Epoch = snap.Epoch
	}

	if _, err := checkpoint.Write(d.ckptDir, st); err != nil {
		return err
	}
	d.kept = append(d.kept, pos)
	if len(d.kept) > ckptRetain {
		d.kept = d.kept[1:]
	}
	d.checkpoints.Add(1)
	d.lastCkptNano.Store(d.now().UnixNano())
	if err := checkpoint.Prune(d.ckptDir, ckptRetain); err != nil {
		return err
	}
	return d.log.TruncateBefore(d.kept[0])
}

// stats feeds the /metrics durability section.
func (d *durability) stats() server.DurabilityStats {
	ws := d.log.Stats()
	s := server.DurabilityStats{
		WAL:                   ws,
		Checkpoints:           d.checkpoints.Load(),
		CheckpointAge:         -1,
		RecoveryReplayed:      d.recoveryReplayed.Load(),
		RecoveryReplaySeconds: d.recoverySeconds,
		RecoveryTornBytes:     d.recoveryTornBytes.Load(),
		Errors:                d.appendErrs.Load() + ws.SyncErrors + d.ckptErrs.Load(),
	}
	if last := d.lastCkptNano.Load(); last > 0 {
		s.CheckpointAge = d.now().Sub(time.Unix(0, last)).Seconds()
	}
	return s
}

// close takes a final checkpoint (covering everything the drain
// re-price saw) and closes the WAL; the daemon has stopped the
// checkpoint loop first. A clean shutdown therefore restarts instantly
// — the final checkpoint covers the whole log, leaving nothing to
// replay.
func (d *durability) close() error {
	err := d.checkpoint()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// warmReprice publishes an initial snapshot from the recovered window
// so a warm restart serves quotes (and 200s on /healthz) immediately
// instead of waiting out the first re-price interval, and returns it. A
// window with nothing to price is not an error — a fresh data dir, one
// whose slots all aged out while the daemon was down, or one whose
// records were all duplicates or dropped — and the daemon warms up
// normally (no snapshot, no error).
func (d *durability) warmReprice(grace time.Duration) (*stream.Snapshot, error) {
	ctx := context.Background()
	if grace > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, grace)
		defer cancel()
	}
	snap, err := d.repricer.Reprice(ctx)
	if errors.Is(err, stream.ErrEmptyWindow) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("warm re-price after recovery: %w", err)
	}
	return snap, nil
}
