package histstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testOpts disables the background flusher so commits happen only on
// FlushBytes overflow, Sync, or Close — deterministic for tests.
func testOpts() Options {
	return Options{FlushInterval: -1}
}

func mustOpen(t *testing.T, dsn string, opts Options) Store {
	t.Helper()
	s, err := Open(dsn, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dsn, err)
	}
	return s
}

func entry(tenant string, epoch int64, at time.Time) Entry {
	return Entry{
		Tenant:      tenant,
		Epoch:       epoch,
		ConfigEpoch: 1,
		At:          at,
		Table:       json.RawMessage(fmt.Sprintf(`{"epoch":%d,"tiers":[{"price":%d.5}]}`, epoch, epoch)),
	}
}

func appendN(t *testing.T, s Store, tenant string, from, to int64, at time.Time) {
	t.Helper()
	for ep := from; ep <= to; ep++ {
		if err := s.Append(entry(tenant, ep, at.Add(time.Duration(ep)*time.Second))); err != nil {
			t.Fatalf("Append(%s, %d): %v", tenant, ep, err)
		}
	}
}

func epochsOf(entries []Entry) []int64 {
	out := make([]int64, len(entries))
	for i, e := range entries {
		out[i] = e.Epoch
	}
	return out
}

func TestOpenDSNDispatch(t *testing.T) {
	dir := t.TempDir()
	for _, dsn := range []string{
		"sqlite:" + filepath.Join(dir, "a.db"),
		filepath.Join(dir, "b.db"),
	} {
		s := mustOpen(t, dsn, testOpts())
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	for _, dsn := range []string{"postgres://u@h/db", "mysql://u@h/db"} {
		if _, err := Open(dsn, testOpts()); err == nil || !strings.Contains(err.Error(), "unknown DSN scheme") {
			t.Fatalf("%s: want the unknown-scheme error, got %v", dsn, err)
		}
	}
	if _, err := Open("", testOpts()); err == nil {
		t.Fatal("empty DSN should be rejected")
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	s := mustOpen(t, filepath.Join(t.TempDir(), "h.db"), testOpts())
	defer s.Close()
	base := time.Unix(1700000000, 0).UTC()
	appendN(t, s, "default", 1, 20, base)

	// Unflushed rows must still be visible to Scan.
	all, err := s.Scan("default", Query{})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(all) != 20 {
		t.Fatalf("Scan: got %d entries, want 20", len(all))
	}
	for i, e := range all {
		want := entry("default", int64(i+1), base.Add(time.Duration(i+1)*time.Second))
		if e.Epoch != want.Epoch || e.Tenant != want.Tenant || !e.At.Equal(want.At) ||
			e.ConfigEpoch != want.ConfigEpoch || string(e.Table) != string(want.Table) {
			t.Fatalf("entry %d mismatch: got %+v want %+v", i, e, want)
		}
	}

	// Range bounds are inclusive; zero means unbounded.
	got, _ := s.Scan("default", Query{SinceEpoch: 5, UntilEpoch: 8})
	if eps := epochsOf(got); len(eps) != 4 || eps[0] != 5 || eps[3] != 8 {
		t.Fatalf("range scan: got %v, want [5 6 7 8]", eps)
	}
	// Limit keeps the newest entries, still oldest-first.
	got, _ = s.Scan("default", Query{Limit: 3})
	if eps := epochsOf(got); len(eps) != 3 || eps[0] != 18 || eps[2] != 20 {
		t.Fatalf("limit scan: got %v, want [18 19 20]", eps)
	}
	got, _ = s.Scan("default", Query{SinceEpoch: 100})
	if len(got) != 0 {
		t.Fatalf("empty range scan: got %v", epochsOf(got))
	}
	got, _ = s.Scan("nosuch", Query{})
	if len(got) != 0 {
		t.Fatalf("unknown tenant scan: got %v", epochsOf(got))
	}
}

func TestReopenPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	s := mustOpen(t, path, testOpts())
	base := time.Unix(1700000000, 0).UTC()
	appendN(t, s, "alpha", 1, 10, base)
	appendN(t, s, "beta", 1, 5, base)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = mustOpen(t, path, testOpts())
	defer s.Close()
	if ts := s.Tenants(); len(ts) != 2 || ts[0] != "alpha" || ts[1] != "beta" {
		t.Fatalf("Tenants after reopen: %v", ts)
	}
	got, err := s.Scan("alpha", Query{})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 10 || string(got[3].Table) != string(entry("alpha", 4, base).Table) {
		t.Fatalf("reopen scan: %d entries, [3]=%s", len(got), got[3].Table)
	}
	st := s.Stats()
	if st.Entries != 15 {
		t.Fatalf("Stats.Entries after reopen = %d, want 15", st.Entries)
	}
}

func TestAppendIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	s := mustOpen(t, path, testOpts())
	base := time.Unix(1700000000, 0).UTC()
	first := entry("default", 7, base)
	if err := s.Append(first); err != nil {
		t.Fatal(err)
	}
	// A re-append of the same key — even with different bytes, as a
	// restore from an older checkpoint would produce — must keep the
	// first-written row.
	second := first
	second.Table = json.RawMessage(`{"epoch":7,"tiers":"REWRITTEN"}`)
	if err := s.Append(second); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Appends != 1 || st.Dupes != 1 || st.Entries != 1 {
		t.Fatalf("stats after dup append: %+v", st)
	}
	got, _ := s.Scan("default", Query{})
	if len(got) != 1 || string(got[0].Table) != string(first.Table) {
		t.Fatalf("dup append overwrote row: %s", got[0].Table)
	}
	// Same across a flush + reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, path, testOpts())
	defer s.Close()
	if err := s.Append(second); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Scan("default", Query{})
	if len(got) != 1 || string(got[0].Table) != string(first.Table) {
		t.Fatalf("dup append after reopen overwrote row: %s", got[0].Table)
	}
	if st := s.Stats(); st.Dupes != 1 {
		t.Fatalf("Dupes after reopen = %d, want 1", st.Dupes)
	}
}

func TestTornTailRecovery(t *testing.T) {
	for _, suffix := range []string{"-wal", ""} {
		t.Run("file"+suffix, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "h.db")
			s := mustOpen(t, path, testOpts())
			base := time.Unix(1700000000, 0).UTC()
			appendN(t, s, "default", 1, 8, base)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if suffix == "" {
				// Move the committed frames into the main file so the
				// torn tail lands there.
				if err := s.(*sqliteStore).forceFold(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Simulate a torn final frame: garbage appended past the
			// last commit.
			f, err := os.OpenFile(path+suffix, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("\x00\x00\x01\x00torn-partial-frame")); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s = mustOpen(t, path, testOpts())
			defer s.Close()
			got, err := s.Scan("default", Query{})
			if err != nil {
				t.Fatalf("Scan after torn tail: %v", err)
			}
			if len(got) != 8 {
				t.Fatalf("torn tail lost committed rows: got %d, want 8", len(got))
			}
			if st := s.Stats(); st.OpenTornBytes == 0 {
				t.Fatal("OpenTornBytes = 0, want > 0")
			}
			// And appends keep working after the truncation.
			appendN(t, s, "default", 9, 9, base)
			if got, _ = s.Scan("default", Query{}); len(got) != 9 {
				t.Fatalf("append after recovery: got %d rows, want 9", len(got))
			}
		})
	}
}

func TestCorruptInteriorFrameTruncatesFromThere(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	s := mustOpen(t, path, testOpts())
	base := time.Unix(1700000000, 0).UTC()
	appendN(t, s, "default", 1, 3, base)
	if err := s.Sync(); err != nil { // frame 1: epochs 1..3
		t.Fatal(err)
	}
	appendN(t, s, "default", 4, 6, base)
	if err := s.Sync(); err != nil { // frame 2: epochs 4..6
		t.Fatal(err)
	}
	frame1End := int64(len(fileMagic)) + walFrameSize(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside frame 2: its CRC fails, and recovery
	// must stop trusting the file at frame 2's start.
	f, err := os.OpenFile(path+"-wal", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, frame1End+frameHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, path, testOpts())
	defer s.Close()
	got, _ := s.Scan("default", Query{})
	if eps := epochsOf(got); len(eps) != 3 || eps[2] != 3 {
		t.Fatalf("after corrupt frame 2: got %v, want [1 2 3]", eps)
	}
}

// walFrameSize computes the frame size for n of this test's entries by
// reading the store's live WAL size after one n-row commit.
func walFrameSize(t *testing.T, s Store, n int) int64 {
	t.Helper()
	ss := s.(*sqliteStore)
	ss.mu.Lock()
	defer ss.mu.Unlock()
	// Two identical commits: the first frame ends at the midpoint.
	total := ss.walSize - int64(len(fileMagic))
	if total%2 != 0 {
		t.Fatalf("uneven double-frame WAL size %d", total)
	}
	return total / 2
}

func TestFoldMovesWALIntoMainFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	opts := testOpts()
	opts.FoldBytes = 1 // every flush folds
	s := mustOpen(t, path, opts)
	base := time.Unix(1700000000, 0).UTC()
	appendN(t, s, "default", 1, 50, base)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Folds == 0 {
		t.Fatalf("no folds recorded: %+v", st)
	}
	if wi, err := os.Stat(path + "-wal"); err != nil || wi.Size() != int64(len(fileMagic)) {
		t.Fatalf("WAL not truncated after fold: size=%v err=%v", wi.Size(), err)
	}
	// Rows must be readable from their folded locations, live and after
	// reopen.
	got, err := s.Scan("default", Query{})
	if err != nil || len(got) != 50 {
		t.Fatalf("scan after fold: %d rows, err=%v", len(got), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, path, testOpts())
	defer s.Close()
	if got, _ = s.Scan("default", Query{}); len(got) != 50 {
		t.Fatalf("scan after fold+reopen: %d rows", len(got))
	}
}

func TestCrashBetweenFoldAndTruncateDedups(t *testing.T) {
	// Simulate the fold crash window: main file already holds the WAL's
	// frames, WAL not yet truncated. Open must index each key once.
	path := filepath.Join(t.TempDir(), "h.db")
	s := mustOpen(t, path, testOpts())
	base := time.Unix(1700000000, 0).UTC()
	appendN(t, s, "default", 1, 10, base)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(path + "-wal")
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Write(wal[len(fileMagic):]); err != nil {
		t.Fatal(err)
	}
	db.Close()

	s = mustOpen(t, path, testOpts())
	defer s.Close()
	got, _ := s.Scan("default", Query{})
	if len(got) != 10 {
		t.Fatalf("crash-window dedup: got %d rows, want 10", len(got))
	}
	if st := s.Stats(); st.Entries != 10 {
		t.Fatalf("Entries = %d, want 10", st.Entries)
	}
}

func TestPruneMaxEntriesCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	s := mustOpen(t, path, testOpts())
	base := time.Unix(1700000000, 0).UTC()
	appendN(t, s, "alpha", 1, 30, base)
	appendN(t, s, "beta", 1, 4, base)
	removed, err := s.Prune(Retention{MaxEntries: 10})
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if removed != 20 {
		t.Fatalf("Prune removed %d, want 20", removed)
	}
	got, _ := s.Scan("alpha", Query{})
	if eps := epochsOf(got); len(eps) != 10 || eps[0] != 21 || eps[9] != 30 {
		t.Fatalf("alpha after prune: %v", eps)
	}
	if got, _ = s.Scan("beta", Query{}); len(got) != 4 {
		t.Fatalf("beta lost rows: %d", len(got))
	}
	st := s.Stats()
	if st.Pruned != 20 || st.Compactions != 1 || st.Entries != 14 {
		t.Fatalf("stats after prune: %+v", st)
	}
	// Compaction rewrote the main file: the pruned rows are gone from
	// disk, and a reopen sees only the live set.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, path, testOpts())
	defer s.Close()
	if got, _ = s.Scan("alpha", Query{}); len(got) != 10 {
		t.Fatalf("alpha after prune+reopen: %d rows", len(got))
	}
	if st := s.Stats(); st.Entries != 14 {
		t.Fatalf("Entries after prune+reopen = %d", st.Entries)
	}
}

func TestPruneMaxAge(t *testing.T) {
	now := time.Unix(1700000000, 0).UTC()
	opts := testOpts()
	opts.Now = func() time.Time { return now.Add(100 * time.Second) }
	s := mustOpen(t, filepath.Join(t.TempDir(), "h.db"), opts)
	defer s.Close()
	appendN(t, s, "default", 1, 90, now) // entry ep has At = now+ep seconds
	// Cutoff at now+40s: epochs 1..39 age out.
	removed, err := s.Prune(Retention{MaxAge: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 39 {
		t.Fatalf("MaxAge prune removed %d, want 39", removed)
	}
	got, _ := s.Scan("default", Query{})
	if eps := epochsOf(got); eps[0] != 40 {
		t.Fatalf("oldest surviving epoch %d, want 40", eps[0])
	}
	// No-op prune doesn't compact.
	st := s.Stats()
	if removed, _ := s.Prune(Retention{MaxAge: 60 * time.Second}); removed != 0 {
		t.Fatalf("second prune removed %d", removed)
	}
	if st2 := s.Stats(); st2.Compactions != st.Compactions {
		t.Fatal("no-op prune compacted")
	}
}

func TestFlushBytesOverflowCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	opts := testOpts()
	opts.FlushBytes = 1 // every append commits
	s := mustOpen(t, path, opts)
	base := time.Unix(1700000000, 0).UTC()
	appendN(t, s, "default", 1, 5, base)
	if st := s.Stats(); st.Flushes != 5 {
		t.Fatalf("Flushes = %d, want 5", st.Flushes)
	}
	// Rows are durable without Close: reopen a copy of the files.
	dir2 := t.TempDir()
	for _, suffix := range []string{"", "-wal"} {
		b, err := os.ReadFile(path + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, "h.db")+suffix, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, filepath.Join(dir2, "h.db"), testOpts())
	defer s2.Close()
	if got, _ := s2.Scan("default", Query{}); len(got) != 5 {
		t.Fatalf("copied store has %d rows, want 5", len(got))
	}
	s.Close()
}

func TestBackgroundFlusher(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	opts := Options{FlushInterval: 5 * time.Millisecond}
	s := mustOpen(t, path, opts)
	defer s.Close()
	appendN(t, s, "default", 1, 3, time.Unix(1700000000, 0).UTC())
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Flushes > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background flusher never committed")
}

func TestConcurrentAppendScan(t *testing.T) {
	s := mustOpen(t, filepath.Join(t.TempDir(), "h.db"), Options{FlushInterval: time.Millisecond})
	defer s.Close()
	base := time.Unix(1700000000, 0).UTC()
	const perTenant = 200
	var wg sync.WaitGroup
	for _, tenant := range []string{"a", "b", "c"} {
		wg.Add(2)
		go func(tn string) {
			defer wg.Done()
			for ep := int64(1); ep <= perTenant; ep++ {
				if err := s.Append(entry(tn, ep, base)); err != nil {
					t.Errorf("Append(%s,%d): %v", tn, ep, err)
					return
				}
			}
		}(tenant)
		go func(tn string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Scan(tn, Query{Limit: 10}); err != nil {
					t.Errorf("Scan(%s): %v", tn, err)
					return
				}
			}
		}(tenant)
	}
	wg.Wait()
	for _, tenant := range []string{"a", "b", "c"} {
		if got, _ := s.Scan(tenant, Query{}); len(got) != perTenant {
			t.Fatalf("tenant %s: %d rows, want %d", tenant, len(got), perTenant)
		}
	}
}

func TestAppendRejectsEmptyTenant(t *testing.T) {
	s := mustOpen(t, filepath.Join(t.TempDir(), "h.db"), testOpts())
	defer s.Close()
	if err := s.Append(Entry{Epoch: 1}); err == nil {
		t.Fatal("empty tenant accepted")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s := mustOpen(t, filepath.Join(t.TempDir(), "h.db"), testOpts())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(entry("default", 1, time.Unix(0, 0))); err == nil {
		t.Fatal("append after close accepted")
	}
	if _, err := s.Prune(Retention{MaxEntries: 1}); err == nil {
		t.Fatal("prune after close accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	if err := os.WriteFile(path, []byte("NOTADBFILE......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testOpts()); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// forceFold exposes folding for tests.
func (s *sqliteStore) forceFold() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.foldLocked()
}
