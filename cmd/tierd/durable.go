package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tieredpricing/internal/checkpoint"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/wal"
)

// durability owns tierd's persistent state: the write-ahead log every
// accepted datagram goes through and the periodic checkpoints that
// bound replay time. The tier-table history ring it used to carry
// lives in a histRecorder now (history.go); checkpoints embed the
// recorder's ring so a restore still warms /v1/history instantly.
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
	dataDir  string
	walDir   string
	ckptDir  string
	tenantID string // stamps checkpoints in tenants/<id> namespaces ("" = a synthesised member's root layout)
	retain   int
	interval time.Duration
	now      func() time.Time

	log      *wal.Log
	window   *stream.Window
	repricer *stream.Repricer

	// mu pairs {WAL append; window apply} and {WAL position; window
	// export} (see above).
	mu sync.Mutex

	stopCh  chan struct{}
	doneCh  chan struct{}
	started bool // the checkpoint loop is running (start was called)

	checkpoints       atomic.Uint64
	lastCkptNano      atomic.Int64
	recoveryReplayed  atomic.Uint64
	recoveryTornBytes atomic.Uint64

	// Failed durable writes the daemon served through from memory: WAL
	// appends and checkpoint writes here, the WAL's background fsyncs in
	// log.Stats().SyncErrors. errsLogged is their sum as of the last log
	// line — the first failure is logged when it happens, the rest are
	// summarised once per checkpoint interval (reportErrors).
	appendErrs atomic.Uint64
	ckptErrs   atomic.Uint64
	errsLogged atomic.Uint64

	// hist is the engine's history recorder: checkpoints embed its ring
	// and a restore seeds it back.
	hist *histRecorder
	// configEpoch reads the process-wide pricing-config generation for
	// checkpoint framing.
	configEpoch func() int64
	// restoredConfigEpoch is the generation the restored checkpoint was
	// taken under (0 when booting fresh); the daemon fast-forwards its
	// epoch counter to at least this.
	restoredConfigEpoch int64
}

// openDurability recovers state from dir and returns the live
// subsystem: window and repricer are restored (newest valid checkpoint
// + WAL-tail replay through the window's own ingest path), the WAL is
// open for appending at the recovered end, and the checkpoint loop is
// ready to start. A synthesised member passes dir = cfg.dataDir and an
// empty tenantID (the original <data-dir>/{wal,checkpoint} layout); a
// -tenants member passes its namespace directory and ID, which stamps
// checkpoints so a namespace mix-up is refused at boot.
func openDurability(cfg config, dir, tenantID string, w *stream.Window, rp *stream.Repricer,
	rec *histRecorder, configEpoch func() int64) (*durability, error) {
	d := &durability{
		dataDir:     dir,
		walDir:      filepath.Join(dir, "wal"),
		ckptDir:     filepath.Join(dir, "checkpoint"),
		tenantID:    tenantID,
		retain:      cfg.ckptRetain,
		interval:    cfg.ckptInterval,
		now:         cfg.now,
		window:      w,
		repricer:    rp,
		hist:        rec,
		configEpoch: configEpoch,
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
	}
	if d.configEpoch == nil {
		d.configEpoch = func() int64 { return 1 }
	}
	if d.now == nil {
		d.now = time.Now
	}

	st, ckptPath, err := checkpoint.LoadNewest(d.ckptDir)
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
		rp.RestoreEpoch(st.Epoch)
		d.restoredConfigEpoch = st.ConfigEpoch
		if d.restoredConfigEpoch == 0 {
			d.restoredConfigEpoch = 1 // pre-reload checkpoint
		}
		if d.hist != nil {
			d.hist.restore(st.History, st.Epoch)
		}
		fmt.Fprintf(os.Stderr, "tierd: restored checkpoint %s (epoch %d, %d slots, wal %d/%d)\n",
			filepath.Base(ckptPath), st.Epoch, len(st.Window.Slots), st.WAL.Segment, st.WAL.Offset)
	}

	res, err := wal.Replay(d.walDir, from, func(ts time.Time, h netflow.Header, recs []netflow.Record) error {
		w.IngestAt(ts, h, recs)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replaying wal: %w", err)
	}
	d.recoveryReplayed.Store(uint64(res.Entries))
	d.recoveryTornBytes.Store(uint64(res.TornBytes))
	if res.Entries > 0 || res.Torn {
		fmt.Fprintf(os.Stderr, "tierd: replayed %d wal entries (torn tail: %v, %d bytes discarded)\n",
			res.Entries, res.Torn, res.TornBytes)
	}

	d.log, err = wal.OpenAt(d.walDir, wal.Options{
		SegmentBytes: cfg.walSegBytes,
		Sync:         cfg.walSync,
	}, res.End)
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

// start launches the periodic checkpoint loop.
func (d *durability) start() {
	d.started = true
	go func() {
		defer close(d.doneCh)
		ticker := time.NewTicker(d.interval)
		defer ticker.Stop()
		for {
			select {
			case <-d.stopCh:
				return
			case <-ticker.C:
				if err := d.checkpoint(); err != nil {
					d.writeFailed(&d.ckptErrs, "checkpoint", err)
				}
				d.reportErrors()
			}
		}
	}()
}

// writeFailed counts one failed durable write. The daemon's policy under
// a failing disk is to keep ingesting and quoting from memory and to say
// so without flooding: the first failure is logged with its cause, later
// ones only move tierd_durability_errors_total and reportErrors' summary.
func (d *durability) writeFailed(n *atomic.Uint64, what string, err error) {
	n.Add(1)
	if d.errsLogged.CompareAndSwap(0, 1) {
		fmt.Fprintf(os.Stderr, "tierd: %s: %v — still ingesting and quoting from memory; further failures are counted in tierd_durability_errors_total and summarised every %s\n",
			what, err, d.interval)
	}
}

// reportErrors logs one summary line if durable writes failed since the
// last line. The checkpoint loop calls it once per interval.
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
// epoch, current table, and history ring, written atomically, and old
// checkpoints and fully-covered WAL segments are pruned.
func (d *durability) checkpoint() error {
	d.mu.Lock()
	pos := d.log.Pos()
	ws := d.window.Export()
	d.mu.Unlock()

	st := &checkpoint.State{CreatedAt: d.now(), Tenant: d.tenantID, WAL: pos, Window: ws,
		ConfigEpoch: d.configEpoch()}
	if snap := d.repricer.Current(); snap != nil {
		st.Epoch = snap.Epoch
		table, err := snap.Table.Marshal()
		if err != nil {
			return fmt.Errorf("marshaling tier table: %w", err)
		}
		st.Table = table
	}
	if d.hist != nil {
		st.History = d.hist.checkpointEntries()
	}

	if _, err := checkpoint.Write(d.ckptDir, st); err != nil {
		return err
	}
	d.checkpoints.Add(1)
	d.lastCkptNano.Store(d.now().UnixNano())
	if err := checkpoint.Prune(d.ckptDir, d.retain); err != nil {
		return err
	}
	// Segments wholly before the covered position are now redundant.
	return d.log.TruncateBefore(pos)
}

// stats feeds the /metrics durability section.
func (d *durability) stats() server.DurabilityStats {
	ws := d.log.Stats()
	s := server.DurabilityStats{
		WALBytes:          ws.Bytes,
		WALEntries:        ws.Entries,
		WALFsyncs:         ws.Fsyncs,
		WALFsyncP50:       float64(ws.FsyncP50Ns) / 1e9,
		WALFsyncP99:       float64(ws.FsyncP99Ns) / 1e9,
		WALFsyncMax:       float64(ws.FsyncMaxNs) / 1e9,
		WALFsyncSum:       ws.FsyncSumNs / 1e9,
		Checkpoints:       d.checkpoints.Load(),
		CheckpointAge:     -1,
		RecoveryReplayed:  d.recoveryReplayed.Load(),
		RecoveryTornBytes: d.recoveryTornBytes.Load(),
		Errors:            d.appendErrs.Load() + ws.SyncErrors + d.ckptErrs.Load(),
	}
	if last := d.lastCkptNano.Load(); last > 0 {
		s.CheckpointAge = d.now().Sub(time.Unix(0, last)).Seconds()
	}
	return s
}

// close stops the checkpoint loop, takes a final checkpoint (covering
// everything the drain re-price saw), and closes the WAL. A clean
// shutdown therefore restarts instantly — the final checkpoint covers
// the whole log, leaving nothing to replay.
func (d *durability) close() error {
	d.stopLoop()
	err := d.checkpoint()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// abort releases the subsystem of a daemon that failed to start: the
// checkpoint loop stops before the WAL it reads closes, and no final
// checkpoint is taken (nothing was served).
func (d *durability) abort() {
	d.stopLoop()
	d.log.Close()
}

// stopLoop stops the checkpoint loop, if start ever launched it, and
// waits for it to exit.
func (d *durability) stopLoop() {
	if d.started {
		close(d.stopCh)
		<-d.doneCh
	}
}

// warmReprice publishes an initial snapshot from the recovered window
// so a warm restart serves quotes (and 200s on /healthz) immediately
// instead of waiting out the first re-price interval. A window with
// nothing to price is not an error — a fresh data dir, one whose slots
// all aged out while the daemon was down, or one whose records were all
// duplicates or dropped — and the daemon warms up normally.
func (d *durability) warmReprice(grace time.Duration) error {
	ctx := context.Background()
	if grace > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, grace)
		defer cancel()
	}
	snap, err := d.repricer.Reprice(ctx)
	if errors.Is(err, stream.ErrEmptyWindow) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("warm re-price after recovery: %w", err)
	}
	if d.hist != nil {
		d.hist.record(snap)
	}
	return nil
}
