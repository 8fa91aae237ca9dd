package histstore

// The engine: one append-only file, in pure Go.
//
//	history.db   header + committed transaction frames; a group commit
//	             appends one frame here (one write, one fsync), and only
//	             compaction (Prune, or a commit after MaxRows trims)
//	             rewrites the file
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
//
// Options.MaxRows bounds each tenant's series to its newest rows. A
// trimmed row that was committed stays in the file, dead, until a group
// commit finds dead bytes outweighing the rest and compacts, so the
// file stays within about twice its live rows plus one frame; a trimmed
// row still staged is never written.
//
// A memory store (NewMemory) is the same index with every row's bytes
// held beside it, as a file store holds its staged rows': no file, no
// flusher, no fsync.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// rowMeta is the resident index entry for one row.
type rowMeta struct {
	atNS int64 // Entry.At, for Prune's age cutoff without a disk read
	off  int64 // where the row's JSON starts in the file, once committed
	n    int32 // the row's JSON length
}

// tenantIdx is one tenant's slice of the series.
type tenantIdx struct {
	epochs []int64 // sorted ascending
	rows   map[int64]*rowMeta
}

// Store is an open tier-history store, safe for concurrent use. Append
// is idempotent on (Tenant, Epoch): re-appending an existing key is a
// no-op that keeps the first-written row, which is what makes
// back-filling rows the store may already hold safe.
type Store struct {
	path string
	opts Options

	mu     sync.Mutex
	f      *os.File // nil in a memory store
	size   int64    // end of the committed frames: where the next commit lands
	dead   int64    // file bytes of rows no longer indexed (compaction reclaims them)
	idx    map[string]*tenantIdx
	held   map[*rowMeta][]byte // JSON of rows not in the file: the staged ones, or all in a memory store
	pend   []*rowMeta          // rows staged for the next commit, oldest first
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
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	framelog.RemoveTemps(filepath.Dir(path), filepath.Base(path)) // what a crashed compaction left
	s := newStore(opts)
	s.path = path
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	s.f = f
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	if s.opts.FlushInterval > 0 {
		go s.flushLoop()
	} else {
		close(s.doneCh)
	}
	return s, nil
}

// NewMemory returns a store that holds its rows in memory only: the
// same index, Append, Scan, Prune and MaxRows bound as a file store,
// with no file, no flusher and no fsync. Its rows end with the process.
func NewMemory(opts Options) *Store {
	s := newStore(opts)
	close(s.doneCh)
	return s
}

// newStore fills in opts' defaults and builds an empty store.
func newStore(opts Options) *Store {
	if opts.FlushInterval == 0 {
		opts.FlushInterval = defaultFlushEvery
	}
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = defaultFlushBytes
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Store{
		opts:   opts,
		idx:    make(map[string]*tenantIdx),
		held:   make(map[*rowMeta][]byte),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
}

// load brings the freshly opened main file to a clean end: a new file
// gets its header, an existing one is indexed and loses any torn or
// corrupt tail, and an older binary's sidecar is migrated onto it.
// Then the MaxRows bound applies.
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
	if err := s.migrateSidecar(); err != nil {
		return err
	}
	for _, ti := range s.idx {
		s.trimLocked(ti)
	}
	return s.tidyLocked()
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
		rm := &rowMeta{atNS: e.At.UnixNano(), off: base + int64(pos), n: int32(n)}
		if s.indexRow(e.Tenant, e.Epoch, rm) == nil {
			s.dead += 4 + int64(n)
		}
		pos += n
	}
	return nil
}

// indexRow inserts rm under (tenant, epoch) and returns the tenant's
// index; a duplicate key keeps the first-indexed row and returns nil.
func (s *Store) indexRow(tenant string, epoch int64, rm *rowMeta) *tenantIdx {
	ti := s.idx[tenant]
	if ti == nil {
		ti = &tenantIdx{rows: make(map[int64]*rowMeta)}
		s.idx[tenant] = ti
	}
	if _, dup := ti.rows[epoch]; dup {
		return nil
	}
	ti.rows[epoch] = rm
	i := sort.Search(len(ti.epochs), func(i int) bool { return ti.epochs[i] >= epoch })
	ti.epochs = slices.Insert(ti.epochs, i, epoch)
	s.stats.Entries++
	s.stats.Bytes += uint64(rm.n)
	return ti
}

// dropLocked removes ti's oldest n rows from the index. A committed
// row's bytes stay in the file, dead, until the next compaction; a held
// one is let go.
func (s *Store) dropLocked(ti *tenantIdx, n int) {
	for _, ep := range ti.epochs[:n] {
		rm := ti.rows[ep]
		s.stats.Bytes -= uint64(rm.n)
		s.stats.Entries--
		if _, held := s.held[rm]; held {
			delete(s.held, rm)
		} else {
			s.dead += 4 + int64(rm.n)
		}
		delete(ti.rows, ep)
	}
	ti.epochs = append(ti.epochs[:0], ti.epochs[n:]...)
	s.stats.Pruned += uint64(n)
}

// trimLocked applies the MaxRows bound to one tenant.
func (s *Store) trimLocked(ti *tenantIdx) {
	if over := len(ti.epochs) - s.opts.MaxRows; s.opts.MaxRows > 0 && over > 0 {
		s.dropLocked(ti, over)
	}
}

// Append stages one row for the next group commit. Idempotent on
// (Tenant, Epoch): an existing key is counted as a dupe and ignored. A
// row older than every row the MaxRows bound keeps is pruned at once.
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
	rm := &rowMeta{atNS: e.At.UnixNano(), n: int32(len(enc))}
	ti := s.indexRow(e.Tenant, e.Epoch, rm)
	if ti == nil {
		s.stats.Dupes++
		return nil
	}
	s.stats.Appends++
	s.held[rm] = enc
	s.trimLocked(ti)
	if s.f == nil {
		return nil // a memory store keeps every row held
	}
	s.pend = append(s.pend, rm)
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
// durable offsets. Staged rows the bound trimmed meanwhile are left
// out. On failure the batch stays pending and the next attempt
// overwrites whatever the failed one left past s.size. A commit that
// leaves dead bytes outweighing live ones compacts the file.
func (s *Store) flushLocked() error {
	s.pend = slices.DeleteFunc(s.pend, func(rm *rowMeta) bool { _, held := s.held[rm]; return !held })
	if len(s.pend) == 0 {
		s.pendB = 0
		return nil
	}
	frame := framelog.AppendHeader(make([]byte, 0, s.pendB+4*len(s.pend)+framelog.HeaderSize))
	at := make([]int, len(s.pend))
	for i, rm := range s.pend {
		frame, at[i] = appendRow(frame, s.held[rm])
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
	for i, rm := range s.pend {
		rm.off = s.size + int64(at[i])
		delete(s.held, rm)
	}
	s.size += int64(len(frame))
	clear(s.pend)
	s.pend = s.pend[:0]
	s.pendB = 0
	s.stats.Flushes++
	return s.tidyLocked()
}

// tidyLocked compacts a file store once its dead bytes outweigh the
// rest, so the file stays within about twice its live rows plus the
// frame just committed.
func (s *Store) tidyLocked() error {
	if s.f == nil || 2*s.dead <= s.size {
		return nil
	}
	return s.compactLocked()
}

// rawRowLocked fetches one row's encoded bytes.
func (s *Store) rawRowLocked(rm *rowMeta) ([]byte, error) {
	if raw, held := s.held[rm]; held {
		return raw, nil
	}
	raw := make([]byte, rm.n)
	if _, err := s.f.ReadAt(raw, rm.off); err != nil {
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
		s.dropLocked(ti, drop)
		removed += drop
	}
	if removed == 0 || s.f == nil {
		return removed, nil
	}
	return removed, s.compactLocked()
}

// compactLocked rewrites the file with only the live rows, published
// whole under the same name (framelog.PublishFile); live pending rows go
// into it too, so the batch it replaces is dropped. It holds s.mu
// throughout: appends and scans wait for it.
func (s *Store) compactLocked() error {
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
	s.f, s.size, s.dead = f, size, 0
	for _, m := range moves {
		m.rm.off = m.off
	}
	clear(s.held)
	clear(s.pend)
	s.pend, s.pendB = s.pend[:0], 0
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
	if s.f == nil {
		return err
	}
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
