package histstore

// The engine: one append-only file, in pure Go.
//
//	history.db   header + committed transaction frames; a group commit
//	             appends one frame here (one write, one fsync), and only
//	             Prune rewrites the file (compaction)
//
// A transaction frame is an internal/framelog frame whose payload is a
// sequence of `u32 rowLen | rowJSON` rows — it either commits wholly or,
// torn by a crash, fails its CRC and is truncated away at open (the
// recovery contract: a torn tail truncates, interior frames are
// trusted). Rows whose (tenant, epoch) key is already indexed are skipped
// at open: the first-written copy wins.
//
// Older binaries group-committed into a `history.db-wal` sidecar in the
// same format and folded it into the main file later. Open appends what
// such a sidecar holds onto the main file, fsyncs, and removes it; a
// crash between the two repeats the append at the next open, and the
// dedup above keeps one copy of each row.
//
// Reads are served from an in-memory index (tenant → sorted epochs →
// row location); row bytes stay on disk and are pread on demand, so
// resident memory is ~48 bytes per row regardless of table size.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tieredpricing/internal/framelog"
)

// fileMagic pins the on-disk format; a format change bumps the suffix
// so old readers reject new files instead of misparsing them.
const fileMagic = "TPHS0001"

const (
	defaultFlushEvery   = 200 * time.Millisecond
	defaultFlushBytes   = 256 << 10
	maxFramePayload     = 16 << 20 // sanity bound when scanning frames
	compactFramePayload = 512 << 10
)

// rowLoc locates one row's JSON bytes: offset + length in the file for
// a committed row, an index into the pending batch for a staged one.
type rowLoc struct {
	off  int64
	n    int32
	pend bool
}

// rowMeta is the resident index entry for one row.
type rowMeta struct {
	atNS int64 // Entry.At, for Prune's age cutoff without a disk read
	loc  rowLoc
}

// pendRow is one staged row: its encoded bytes plus the index entry to
// re-point at the durable offset once the batch commits.
type pendRow struct {
	enc []byte
	rm  *rowMeta
}

// tenantIdx is one tenant's slice of the series.
type tenantIdx struct {
	epochs []int64 // sorted ascending
	rows   map[int64]*rowMeta
	bytes  uint64 // encoded size of live rows
}

// Store is an open tier-history store, safe for concurrent use. Append
// is idempotent on (Tenant, Epoch): re-appending an existing key is a
// no-op that keeps the first-written row, which is what makes replaying
// history after a restore from an older checkpoint safe.
type Store struct {
	path string
	opts Options

	mu     sync.Mutex
	f      *os.File
	size   int64 // end of the committed frames: where the next commit lands
	idx    map[string]*tenantIdx
	pend   []pendRow // encoded rows staged for the next commit
	pendB  int
	closed bool

	stats Stats

	stopCh chan struct{}
	doneCh chan struct{}
}

// Open opens (creating if absent) the store at path and replays the file
// into the resident index, truncating a torn tail. A `sqlite:` prefix is
// accepted and ignored: old configs wrote the path that way.
func Open(path string, opts Options) (*Store, error) {
	path = strings.TrimPrefix(path, "sqlite:")
	switch {
	case path == "":
		return nil, errors.New("histstore: empty path")
	case strings.Contains(path, "://"):
		return nil, fmt.Errorf("histstore: unknown DSN scheme in %q (want a file path)", path)
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = defaultFlushEvery
	}
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = defaultFlushBytes
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	framelog.RemoveTemps(filepath.Dir(path), filepath.Base(path)) // what a crashed compaction left
	s := &Store{
		path:   path,
		opts:   opts,
		idx:    make(map[string]*tenantIdx),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	s.f = f
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	if opts.FlushInterval > 0 {
		go s.flushLoop()
	} else {
		close(s.doneCh)
	}
	return s, nil
}

// load brings the freshly opened main file to a clean end: a new file
// gets its header, an existing one is indexed and loses any torn or
// corrupt tail, and an older binary's sidecar is migrated onto it.
func (s *Store) load() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("histstore: %w", err)
	}
	if fi.Size() == 0 {
		s.size = int64(len(fileMagic))
		_, err = s.f.Write([]byte(fileMagic))
	} else {
		if s.size, err = s.index(s.f, fi.Size(), 0); err != nil {
			return err
		}
		if s.size < fi.Size() {
			// Everything before the tail replayed cleanly, so cut the file
			// back to the valid prefix and carry on.
			err = s.f.Truncate(s.size)
		}
	}
	if err == nil && s.size != fi.Size() {
		err = s.f.Sync() // the new header or the cut; a clean open pays no fsync
	}
	if err != nil {
		return fmt.Errorf("histstore: preparing %s: %w", s.path, err)
	}
	return s.migrateSidecar()
}

// index checks f's magic, indexes the rows of its valid frame prefix as
// living delta bytes further into the main file than they do in f, and
// returns where that prefix ends.
func (s *Store) index(f *os.File, size, delta int64) (int64, error) {
	magic := make([]byte, len(fileMagic))
	if _, err := f.ReadAt(magic, 0); err != nil || string(magic) != fileMagic {
		return 0, fmt.Errorf("histstore: %s is not a history store (bad magic)", f.Name())
	}
	valid, err := framelog.Scan(f, int64(len(fileMagic)), size, maxFramePayload, func(off int64, payload []byte) error {
		return s.indexFrame(payload, off+delta)
	})
	s.stats.OpenTornBytes += uint64(size - valid)
	return valid, err
}

// migrateSidecar appends the committed frames of a `-wal` sidecar an
// older binary left onto the main file, fsyncs, and only then removes
// the sidecar (one that survives a crash in between is merely migrated
// again).
func (s *Store) migrateSidecar() error {
	side, err := os.Open(s.path + "-wal")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("histstore: %w", err)
	}
	defer side.Close()
	fi, err := side.Stat()
	if err != nil {
		return fmt.Errorf("histstore: %w", err)
	}
	if fi.Size() > int64(len(fileMagic)) {
		valid, err := s.index(side, fi.Size(), s.size-int64(len(fileMagic)))
		if err != nil {
			return err
		}
		frames := make([]byte, valid-int64(len(fileMagic)))
		if _, err := side.ReadAt(frames, int64(len(fileMagic))); err != nil {
			return fmt.Errorf("histstore: reading sidecar: %w", err)
		}
		if _, err := s.f.WriteAt(frames, s.size); err != nil {
			return fmt.Errorf("histstore: migrating sidecar: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("histstore: migrating sidecar: %w", err)
		}
		s.size += int64(len(frames))
	}
	if err := os.Remove(side.Name()); err != nil {
		return fmt.Errorf("histstore: removing migrated sidecar: %w", err)
	}
	return framelog.SyncDir(filepath.Dir(s.path))
}

// indexFrame walks one committed frame's rows, which start at file
// offset base, and indexes them.
func (s *Store) indexFrame(payload []byte, base int64) error {
	for pos := 0; pos < len(payload); {
		if pos+4 > len(payload) {
			return fmt.Errorf("histstore: frame row header overruns payload")
		}
		n := int(binary.BigEndian.Uint32(payload[pos:]))
		pos += 4
		if n <= 0 || pos+n > len(payload) {
			return fmt.Errorf("histstore: frame row overruns payload")
		}
		var e Entry
		if err := json.Unmarshal(payload[pos:pos+n], &e); err != nil {
			return fmt.Errorf("histstore: decoding row: %w", err)
		}
		s.indexRow(e, rowLoc{off: base + int64(pos), n: int32(n)})
		pos += n
	}
	return nil
}

// indexRow inserts one row if its key is new, returning the index
// entry; duplicates keep the first-indexed copy and return nil.
func (s *Store) indexRow(e Entry, loc rowLoc) *rowMeta {
	ti := s.idx[e.Tenant]
	if ti == nil {
		ti = &tenantIdx{rows: make(map[int64]*rowMeta)}
		s.idx[e.Tenant] = ti
	}
	if _, dup := ti.rows[e.Epoch]; dup {
		return nil
	}
	rm := &rowMeta{atNS: e.At.UnixNano(), loc: loc}
	ti.rows[e.Epoch] = rm
	i := sort.Search(len(ti.epochs), func(i int) bool { return ti.epochs[i] >= e.Epoch })
	ti.epochs = append(ti.epochs, 0)
	copy(ti.epochs[i+1:], ti.epochs[i:])
	ti.epochs[i] = e.Epoch
	ti.bytes += uint64(loc.n)
	s.stats.Entries++
	s.stats.Bytes += uint64(loc.n)
	return rm
}

// Append stages one row for the next group commit. Idempotent on
// (Tenant, Epoch): an existing key is counted as a dupe and ignored.
func (s *Store) Append(e Entry) error {
	if e.Tenant == "" {
		return errors.New("histstore: append needs a tenant")
	}
	enc, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("histstore: encoding row: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("histstore: store is closed")
	}
	rm := s.indexRow(e, rowLoc{pend: true, off: int64(len(s.pend)), n: int32(len(enc))})
	if rm == nil {
		s.stats.Dupes++
		return nil
	}
	s.stats.Appends++
	s.pend = append(s.pend, pendRow{enc: enc, rm: rm})
	s.pendB += len(enc)
	if s.pendB >= s.opts.FlushBytes {
		return s.flushLocked()
	}
	return nil
}

// appendRow adds one `u32 len | json` row to a frame under construction
// and returns where in the frame the JSON starts.
func appendRow(frame, enc []byte) ([]byte, int) {
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(enc)))
	return append(frame, enc...), len(frame)
}

// flushLocked commits the pending batch as one frame: one write at the
// end of the file, one fsync, then the rows are re-pointed at their
// durable offsets. On failure the batch stays pending and the next
// attempt overwrites whatever the failed one left past s.size.
func (s *Store) flushLocked() error {
	if len(s.pend) == 0 {
		return nil
	}
	frame := framelog.AppendHeader(make([]byte, 0, s.pendB+4*len(s.pend)+framelog.HeaderSize))
	at := make([]int, len(s.pend))
	for i, pr := range s.pend {
		frame, at[i] = appendRow(frame, pr.enc)
	}
	framelog.Seal(frame, 0)
	if _, err := s.f.WriteAt(frame, s.size); err != nil {
		s.stats.AppendErrors++
		return fmt.Errorf("histstore: append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		s.stats.AppendErrors++
		return fmt.Errorf("histstore: fsync: %w", err)
	}
	// A row pruned while pending just repoints a dead rowMeta — its bytes
	// stay dead until the next compaction.
	for i, pr := range s.pend {
		pr.rm.loc = rowLoc{off: s.size + int64(at[i]), n: int32(len(pr.enc))}
	}
	s.size += int64(len(frame))
	s.pend = s.pend[:0]
	s.pendB = 0
	s.stats.Flushes++
	return nil
}

// rawRowLocked fetches one row's encoded bytes.
func (s *Store) rawRowLocked(rm *rowMeta) ([]byte, error) {
	if rm.loc.pend {
		return s.pend[rm.loc.off].enc, nil
	}
	raw := make([]byte, rm.loc.n)
	if _, err := s.f.ReadAt(raw, rm.loc.off); err != nil {
		return nil, fmt.Errorf("histstore: reading row: %w", err)
	}
	return raw, nil
}

// Scan returns the tenant's rows in [SinceEpoch, UntilEpoch] oldest
// first, keeping the newest Limit when more match.
func (s *Store) Scan(tenant string, q Query) ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Scans++
	ti := s.idx[tenant]
	if ti == nil {
		return nil, nil
	}
	lo, hi := q.Range(len(ti.epochs), func(i int) int64 { return ti.epochs[i] })
	if lo == hi {
		return nil, nil
	}
	epochs := ti.epochs[lo:hi]
	out := make([]Entry, 0, len(epochs))
	for _, ep := range epochs {
		raw, err := s.rawRowLocked(ti.rows[ep])
		if err != nil {
			return nil, err
		}
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("histstore: decoding row: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}

// Prune drops every tenant's rows whose At is older than now-maxAge
// (maxAge <= 0 keeps everything), reports how many it removed, and
// compacts the file when any were.
func (s *Store) Prune(maxAge time.Duration) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("histstore: store is closed")
	}
	if maxAge <= 0 {
		return 0, nil
	}
	removed := 0
	cutoffNS := s.opts.Now().Add(-maxAge).UnixNano()
	for _, ti := range s.idx {
		drop := sort.Search(len(ti.epochs), func(i int) bool {
			return ti.rows[ti.epochs[i]].atNS >= cutoffNS
		})
		for _, ep := range ti.epochs[:drop] {
			rm := ti.rows[ep]
			ti.bytes -= uint64(rm.loc.n)
			s.stats.Bytes -= uint64(rm.loc.n)
			s.stats.Entries--
			delete(ti.rows, ep)
		}
		ti.epochs = append(ti.epochs[:0], ti.epochs[drop:]...)
		removed += drop
	}
	if removed == 0 {
		return 0, nil
	}
	s.stats.Pruned += uint64(removed)
	if err := s.compactLocked(); err != nil {
		return removed, err
	}
	return removed, nil
}

// compactLocked rewrites the file with only the live rows, published
// whole under the same name (framelog.PublishFile). Pending rows are
// flushed first so the compacted file is complete. It holds s.mu
// throughout: appends and scans wait for it.
func (s *Store) compactLocked() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	// Deterministic layout: tenants sorted, epochs ascending, frames
	// bounded so open never buffers more than one frame.
	tenants := make([]string, 0, len(s.idx))
	for t := range s.idx {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	type move struct {
		rm  *rowMeta
		off int64
	}
	var moves []move
	size := int64(len(fileMagic))
	err := framelog.PublishFile(s.path, func(w io.Writer) error {
		if _, err := w.Write([]byte(fileMagic)); err != nil {
			return err
		}
		frame, rows := framelog.AppendHeader(nil), 0
		writeFrame := func() error {
			if rows == 0 {
				return nil
			}
			framelog.Seal(frame, 0)
			_, err := w.Write(frame)
			size += int64(len(frame))
			frame, rows = framelog.AppendHeader(frame[:0]), 0
			return err
		}
		for _, t := range tenants {
			ti := s.idx[t]
			for _, ep := range ti.epochs {
				rm := ti.rows[ep]
				raw, err := s.rawRowLocked(rm)
				if err != nil {
					return err
				}
				var at int
				frame, at = appendRow(frame, raw)
				moves = append(moves, move{rm, size + int64(at)})
				if rows++; len(frame) >= compactFramePayload {
					if err := writeFrame(); err != nil {
						return err
					}
				}
			}
		}
		return writeFrame()
	})
	if err != nil {
		return fmt.Errorf("histstore: compact: %w", err)
	}
	// Swap the handle to the new file.
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("histstore: compact reopen: %w", err)
	}
	s.f.Close()
	s.f, s.size = f, size
	for _, m := range moves {
		m.rm.loc.off = m.off
	}
	s.stats.Compactions++
	return nil
}

// Sync commits any staged rows.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.flushLocked()
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close flushes, stops the background flusher, and closes the file.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.flushLocked()
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	<-s.doneCh
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// flushLoop is the group-commit ticker: staged appends become durable
// at least every FlushInterval without any caller paying the fsync.
func (s *Store) flushLoop() {
	defer close(s.doneCh)
	ticker := time.NewTicker(s.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
			s.mu.Lock()
			if !s.closed {
				if err := s.flushLocked(); err != nil {
					fmt.Fprintln(os.Stderr, "histstore:", err)
				}
			}
			s.mu.Unlock()
		}
	}
}
