// Package wal is tierd's write-ahead log: a segmented, append-only,
// CRC-framed record of every accepted flow-export datagram, written
// before the datagram mutates the in-memory window. Durability model:
//
//   - Every entry is one post-fault datagram — the arrival timestamp
//     the window slotted it by, plus the re-encoded NetFlow packet — so
//     replaying the log through the window's ingest path reconstructs
//     the exact in-memory state, slot for slot and dedup set for dedup
//     set (stream.Window.IngestAt).
//   - Entries are internal/framelog frames; a crash can tear at most the
//     final one, and recovery keeps the longest valid prefix and
//     discards the tail, never a corrupt middle.
//   - The log is segmented (`wal-<seq>.log`); a checkpoint that covers
//     a position lets every earlier segment be deleted whole
//     (TruncateBefore), bounding disk use without ever rewriting a
//     live segment.
//   - fsync policy is configurable (SyncBatch group-commit by default:
//     appends return immediately, a background syncer coalesces fsyncs
//     within a small window), keeping durability off the ingest fast
//     path; fsync latency is recorded in an internal/hist histogram
//     for the tierd_wal_fsync_seconds metric.
//
// The recovery invariant the chaos tests pin: checkpoint + replay of
// the WAL tail is byte-identical to never having crashed, over the
// records the log durably holds.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tieredpricing/internal/framelog"
	"tieredpricing/internal/hist"
	"tieredpricing/internal/netflow"
)

// A frame's payload is a u64 arrival unix-nanos + one encoded NetFlow
// packet.
const (
	tsSize = 8
	// MaxEntryBytes bounds a frame's payload: a v5 export packet tops
	// out at 24+30·48 bytes, so anything larger than this is framing
	// corruption, not data.
	MaxEntryBytes = 64 << 10
	// batchWindow is how long the SyncBatch syncer lets appends
	// accumulate before the one fsync that covers them.
	batchWindow = 2 * time.Millisecond
)

// SyncMode selects when appended entries are fsynced.
type SyncMode uint8

const (
	// SyncBatch is group commit: appends return after the write
	// syscall; a background syncer fsyncs at most once per batch
	// window while the log is dirty. A process crash (kill -9) loses
	// nothing — the page cache survives the process — only a machine
	// crash can lose the last batch window.
	SyncBatch SyncMode = iota
	// SyncAlways fsyncs inline on every append.
	SyncAlways
	// SyncNone never fsyncs; the OS flushes at its leisure.
	SyncNone
)

// ParseSyncMode maps the -wal-sync flag values.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want batch, always or none)", s)
}

// String returns the flag spelling of the mode.
func (m SyncMode) String() string {
	switch m {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("syncmode(%d)", uint8(m))
	}
}

// Options tune a log. The zero value selects the defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this
	// size (default 4 MiB). Rotation granularity is what TruncateBefore
	// can reclaim, so smaller segments mean tighter disk bounds.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncBatch).
	Sync SyncMode
	// OnSyncError, when set, is handed the error of each fsync the
	// background syncer saw fail — the one failure with no caller to
	// return it to. It runs on the syncer's goroutine, outside the log's
	// lock.
	OnSyncError func(error)
}

// Position addresses a byte boundary in the log: the start of segment
// Segment's frame at byte Offset. The zero Position is the beginning of
// the log. Positions compare lexicographically.
type Position struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

// Before reports whether p addresses an earlier boundary than q.
func (p Position) Before(q Position) bool {
	return p.Segment < q.Segment || (p.Segment == q.Segment && p.Offset < q.Offset)
}

// Stats is a point-in-time view of the log for the /metrics endpoint.
type Stats struct {
	// Bytes and Entries count everything appended through this handle
	// (not what is on disk — truncation does not subtract).
	Bytes   uint64
	Entries uint64
	// Fsyncs counts fsync syscalls issued; the latency fields summarize
	// their distribution. The quantiles read at bucket resolution
	// (fsyncBounds): the upper bound of the bucket holding the rank, or
	// the max when that is smaller, so they never understate.
	Fsyncs uint64
	// SyncErrors counts fsyncs the background syncer saw fail; it has no
	// caller to return them to (inline failures come back from Append,
	// Sync and Close), so each also goes to Options.OnSyncError.
	SyncErrors uint64
	FsyncP50Ns int64
	FsyncP99Ns int64
	FsyncMaxNs int64
	FsyncSumNs float64
	// Segment/Offset is the current end position.
	Segment uint64
	Offset  int64
}

// Log is an open write-ahead log. Append is safe for concurrent use;
// one Log owns its directory's wal-*.log files.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	write   func(f *os.File, b []byte, off int64) (int, error) // (*os.File).WriteAt; tests fail it
	seg     uint64
	off     int64 // where the next frame goes: the end of the last whole one
	dirty   bool
	closed  bool
	buf     []byte // frame assembly buffer, reused across appends
	bytes   uint64
	entries uint64
	fsyncs  uint64
	syncErr uint64
	fsyncNs *hist.Histogram

	syncReq    chan struct{}
	stopSyncer chan struct{}
	stopOnce   sync.Once
	syncerDone chan struct{}
}

const segPrefix, segSuffix = "wal-", ".log"

// fsyncBounds are the fsync latency buckets in nanoseconds: 1 µs to 1 s
// in 1-2.5-5 steps, from a flush the page cache absorbs to a stalled
// disk.
var fsyncBounds = []float64{1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9}

// segmentPath is the file of segment seq.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, framelog.SeqName(segPrefix, seq, segSuffix))
}

// Open opens the log in dir for appending, creating the directory and
// first segment as needed. The newest segment is scanned and any torn
// tail (a partial or CRC-failing final frame) is truncated away, so
// appends always continue a valid prefix. Use OpenAt after an explicit
// Replay to resume at the replay's validated end instead.
func Open(dir string, opts Options) (*Log, error) {
	segs, err := framelog.ListSeq(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	pos := Position{}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		end, _, _, err := scanSegment(dir, last, 0, nil)
		if err != nil {
			return nil, err
		}
		pos = Position{Segment: last, Offset: end}
	}
	return OpenAt(dir, opts, pos)
}

// OpenAt opens the log for appending at pos, the validated end of the
// log (normally Replay's End). Segments beyond pos and any bytes past
// pos.Offset in its segment are discarded — they are at best a torn
// tail that recovery already chose not to trust — so the on-disk log
// is exactly the recovered prefix before the first new append.
func OpenAt(dir string, opts Options, pos Position) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fsyncNs, err := hist.New(fsyncBounds...)
	if err != nil {
		return nil, err
	}
	segs, err := framelog.ListSeq(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	for _, seq := range segs {
		if pos.Segment != 0 && seq > pos.Segment {
			if err := os.Remove(segmentPath(dir, seq)); err != nil {
				return nil, fmt.Errorf("wal: dropping segment beyond recovery point: %w", err)
			}
		}
	}
	seg := pos.Segment
	if seg == 0 {
		seg = 1
	}
	f, err := os.OpenFile(segmentPath(dir, seg), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, err
	}
	off := pos.Offset
	switch {
	case size > off:
		// Torn or untrusted tail: cut the file back to the validated
		// prefix so new frames don't follow garbage.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, err
		}
	case size < off:
		// The checkpoint claims more than the file holds (manual
		// cleanup, copy loss). Everything up to the claim is already in
		// the checkpoint, so appending at the real size stays correct.
		off = size
	}
	l := &Log{
		dir:        dir,
		opts:       opts,
		f:          f,
		write:      (*os.File).WriteAt,
		seg:        seg,
		off:        off,
		fsyncNs:    fsyncNs,
		syncReq:    make(chan struct{}, 1),
		stopSyncer: make(chan struct{}),
		syncerDone: make(chan struct{}),
	}
	if opts.Sync == SyncBatch {
		go l.syncer()
	} else {
		close(l.syncerDone)
	}
	return l, nil
}

// Append logs one accepted datagram: the arrival timestamp ts (the
// instant the window slots the records by) and the packet itself.
// Under SyncBatch and SyncNone it returns after the write syscall; the
// data then survives a process crash, and under SyncBatch an fsync
// follows within the batch window.
func (l *Log) Append(ts time.Time, h netflow.Header, recs []netflow.Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	// The frame is built where it is written from: header, timestamp and
	// the packet encoded straight behind them.
	buf := framelog.AppendHeader(l.buf[:0])
	buf = binary.BigEndian.AppendUint64(buf, uint64(ts.UnixNano()))
	buf, err := netflow.AppendPacket(buf, h, recs)
	if err != nil {
		return fmt.Errorf("wal: encode: %w", err)
	}
	l.buf = buf
	framelog.Seal(l.buf, 0)

	if l.off >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	// Frames are written at the log's end, not at the file's offset: a
	// write that fails part-way (ENOSPC, EIO) leaves l.off at the frame's
	// start, so the next frame overwrites the partial one instead of
	// following it, and replay, which stops at the first torn frame, loses
	// the failed datagram alone. The truncate is best effort; a tail it
	// leaves behind is at most a torn frame past the last whole one, which
	// OpenAt cuts.
	n, err := l.write(l.f, l.buf, l.off)
	if err != nil {
		if n > 0 {
			_ = l.f.Truncate(l.off)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.off += int64(n)
	l.bytes += uint64(n)
	l.entries++
	l.dirty = true
	switch l.opts.Sync {
	case SyncAlways:
		return l.syncLocked()
	case SyncBatch:
		select {
		case l.syncReq <- struct{}{}:
		default: // a sync is already scheduled; it will cover this append
		}
	}
	return nil
}

// rotateLocked fsyncs and closes the active segment and starts the
// next one. A rotated segment is complete by construction: every frame
// in it was fully written, which is why recovery trusts non-final
// segments and only scans the last for tears.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	l.seg++
	f, err := os.OpenFile(segmentPath(l.dir, l.seg), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment %d: %w", l.seg, err)
	}
	l.f = f
	l.off = 0
	return framelog.SyncDir(l.dir)
}

// syncLocked fsyncs the active segment if dirty, recording latency.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncs++
	l.fsyncNs.Observe(float64(time.Since(start)))
	l.dirty = false
	return nil
}

// syncer is the group-commit goroutine: each request waits out the
// batch window (coalescing concurrent appends) and issues one fsync.
func (l *Log) syncer() {
	defer close(l.syncerDone)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-l.stopSyncer:
			return
		case <-l.syncReq:
		}
		timer.Reset(batchWindow)
		select {
		case <-l.stopSyncer:
			timer.Stop()
			return
		case <-timer.C:
		}
		l.syncBatch()
	}
}

// syncBatch is the syncer's fsync. It runs outside the log mutex — an
// fsync takes about as long as the batch window, and Append, hence the
// ingest path, must not queue behind it — so the log can move on
// meanwhile. It stays dirty unless the fsync provably covered its tail:
// appends that landed during the fsync have a request of their own
// posted, and a rotation or Close that overtook it still sees dirty and
// fsyncs the segment itself before closing it, which is why failing on
// a segment that is no longer the active one is not an error.
func (l *Log) syncBatch() {
	l.mu.Lock()
	f, seg, off := l.f, l.seg, l.off
	skip := l.closed || !l.dirty
	l.mu.Unlock()
	if skip {
		return
	}
	start := time.Now()
	err := f.Sync()
	took := time.Since(start)
	l.mu.Lock()
	switch {
	case err == nil:
		l.fsyncs++
		l.fsyncNs.Observe(float64(took))
		if l.seg == seg && l.off == off {
			l.dirty = false
		}
	case l.seg == seg && !l.closed:
		l.syncErr++ // the log stays dirty: the next Sync or Close retries and reports
	default:
		err = nil // the segment was rotated or closed, and fsynced there
	}
	l.mu.Unlock()
	if err != nil && l.opts.OnSyncError != nil {
		l.opts.OnSyncError(fmt.Errorf("wal: background fsync: %w", err))
	}
}

// Sync forces an fsync of everything appended so far (all modes).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// Pos returns the end position: the boundary the next append writes at.
// Everything strictly before it is in the log.
func (l *Log) Pos() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Position{Segment: l.seg, Offset: l.off}
}

// TruncateBefore deletes whole segments strictly below pos.Segment —
// call it after a checkpoint covering pos has been durably written, at
// which point those segments are redundant. The segment containing pos
// is kept (replay skips into it by offset).
func (l *Log) TruncateBefore(pos Position) error {
	l.mu.Lock()
	active := l.seg
	l.mu.Unlock()
	segs, err := framelog.ListSeq(l.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if seq >= pos.Segment || seq >= active {
			continue
		}
		if err := os.Remove(segmentPath(l.dir, seq)); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return nil
}

// Stats snapshots the log's counters and fsync latency distribution.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Bytes:      l.bytes,
		Entries:    l.entries,
		Fsyncs:     l.fsyncs,
		SyncErrors: l.syncErr,
		FsyncP50Ns: int64(l.fsyncNs.Quantile(0.50)),
		FsyncP99Ns: int64(l.fsyncNs.Quantile(0.99)),
		FsyncMaxNs: int64(l.fsyncNs.Max()),
		FsyncSumNs: l.fsyncNs.Sum(),
		Segment:    l.seg,
		Offset:     l.off,
	}
}

// Close stops the syncer, fsyncs the tail, and closes the segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	if l.opts.Sync == SyncBatch {
		l.stopOnce.Do(func() { close(l.stopSyncer) })
		<-l.syncerDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}
