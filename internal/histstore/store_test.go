package histstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

func mustOpen(t *testing.T, dsn string, opts Options) *Store {
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

func appendN(t *testing.T, s *Store, tenant string, from, to int64, at time.Time) {
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

func TestOpenPathForms(t *testing.T) {
	dir := t.TempDir()
	// A bare path, and the "sqlite:" spelling old configs used for it.
	for dsn, file := range map[string]string{
		filepath.Join(dir, "b.db"):             "b.db",
		"sqlite:" + filepath.Join(dir, "a.db"): "a.db",
	} {
		s := mustOpen(t, dsn, testOpts())
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, file)); err != nil {
			t.Fatalf("%s did not create %s: %v", dsn, file, err)
		}
	}
	for _, dsn := range []string{"postgres://u@h/db", "mysql://u@h/db"} {
		if _, err := Open(dsn, testOpts()); err == nil || !strings.Contains(err.Error(), "unknown DSN scheme") {
			t.Fatalf("%s: want the unknown-scheme error, got %v", dsn, err)
		}
	}
	for _, dsn := range []string{"", "sqlite:"} {
		if _, err := Open(dsn, testOpts()); err == nil {
			t.Fatalf("empty path %q should be rejected", dsn)
		}
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
	if got, err := s.Scan("beta", Query{}); err != nil || len(got) != 5 {
		t.Fatalf("beta after reopen: %d rows, %v", len(got), err)
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
	if side, _ := filepath.Glob(path + "-*"); len(side) != 0 {
		t.Fatalf("the store is one file, found %v beside it", side)
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

// TestTornTailRecovery: what the store does with the valid prefix
// internal/framelog hands it — the committed rows stay, the tail is cut
// and counted, and appends continue on the cut file.
func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	s := mustOpen(t, path, testOpts())
	base := time.Unix(1700000000, 0).UTC()
	appendN(t, s, "default", 1, 8, base)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	clean, _ := os.Stat(path)
	// A torn final frame: garbage appended past the last commit.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
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
	if st := s.Stats(); st.OpenTornBytes != 22 {
		t.Fatalf("OpenTornBytes = %d, want the 22 appended", st.OpenTornBytes)
	}
	if fi, _ := os.Stat(path); fi.Size() != clean.Size() {
		t.Fatalf("file is %d bytes after recovery, want the clean %d", fi.Size(), clean.Size())
	}
	// And appends keep working after the truncation.
	appendN(t, s, "default", 9, 9, base)
	if got, _ = s.Scan("default", Query{}); len(got) != 9 {
		t.Fatalf("append after recovery: got %d rows, want 9", len(got))
	}
}

// TestCorruptInteriorFrameTruncatesFromThere: a bad frame in the middle
// ends the file there — the intact frame after it goes too, it is not
// skipped over.
func TestCorruptInteriorFrameTruncatesFromThere(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	s := mustOpen(t, path, testOpts())
	base := time.Unix(1700000000, 0).UTC()
	var ends []int64 // file size after each commit
	for ep := int64(1); ep <= 9; ep += 3 {
		appendN(t, s, "default", ep, ep+2, base)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(path)
		ends = append(ends, fi.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside frame 2 (epochs 4..6).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, (ends[0]+ends[1])/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, path, testOpts())
	defer s.Close()
	got, _ := s.Scan("default", Query{})
	if eps := epochsOf(got); len(eps) != 3 || eps[2] != 3 {
		t.Fatalf("after corrupt frame 2: got %v, want [1 2 3]", eps)
	}
	if fi, _ := os.Stat(path); fi.Size() != ends[0] {
		t.Fatalf("file is %d bytes, want it cut at frame 1's end %d", fi.Size(), ends[0])
	}
}

// writeSidecar leaves, beside the store at path, the `-wal` file an
// older binary would have: a file in the store's own format holding
// whatever fill commits.
func writeSidecar(t *testing.T, path string, fill func(s *Store)) {
	t.Helper()
	tmp := filepath.Join(t.TempDir(), "side.db")
	s := mustOpen(t, tmp, testOpts())
	fill(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path+"-wal"); err != nil {
		t.Fatal(err)
	}
}

func TestSidecarMigratesIntoMainFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	base := time.Unix(1700000000, 0).UTC()
	s := mustOpen(t, path, testOpts())
	appendN(t, s, "default", 1, 20, base)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	writeSidecar(t, path, func(side *Store) {
		appendN(t, side, "default", 21, 40, base)
		side.Sync() // two frames
		appendN(t, side, "default", 41, 50, base)
	})
	// A torn tail on the sidecar stays behind; its committed frames move.
	f, err := os.OpenFile(path+"-wal", os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 1, 2, 3})
	f.Close()

	// Rows must be readable from their migrated locations, live and after
	// reopen, and the sidecar must be gone after the first open.
	for _, pass := range []string{"migrating open", "reopen"} {
		s = mustOpen(t, path, testOpts())
		got, err := s.Scan("default", Query{})
		if err != nil || len(got) != 50 {
			t.Fatalf("%s: %d rows, err=%v", pass, len(got), err)
		}
		for i, e := range got {
			if want := entry("default", int64(i+1), base.Add(time.Duration(i+1)*time.Second)); !reflect.DeepEqual(e.Table, want.Table) || e.Epoch != want.Epoch {
				t.Fatalf("%s: row %d reads back as epoch %d %s", pass, i, e.Epoch, e.Table)
			}
		}
		if _, err := os.Stat(path + "-wal"); !os.IsNotExist(err) {
			t.Fatalf("%s: sidecar still there (%v)", pass, err)
		}
		if torn := s.Stats().OpenTornBytes; (pass == "migrating open") != (torn == 7) {
			t.Fatalf("%s: OpenTornBytes = %d", pass, torn)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashBetweenMigrateAndRemoveDedups(t *testing.T) {
	// The migration's crash window: the main file already holds the
	// sidecar's frames, the sidecar is not yet removed. The next open
	// appends them again and must still index each key once.
	path := filepath.Join(t.TempDir(), "h.db")
	base := time.Unix(1700000000, 0).UTC()
	s := mustOpen(t, path, testOpts())
	appendN(t, s, "default", 1, 5, base)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	writeSidecar(t, path, func(side *Store) { appendN(t, side, "default", 6, 10, base) })
	side, err := os.ReadFile(path + "-wal")
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Write(side[len(fileMagic):]); err != nil {
		t.Fatal(err)
	}
	db.Close()

	for _, pass := range []string{"open after crash", "reopen"} {
		s = mustOpen(t, path, testOpts())
		got, _ := s.Scan("default", Query{})
		if len(got) != 10 {
			t.Fatalf("%s: got %d rows, want 10", pass, len(got))
		}
		if st := s.Stats(); st.Entries != 10 {
			t.Fatalf("%s: Entries = %d, want 10", pass, st.Entries)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + "-wal"); !os.IsNotExist(err) {
		t.Fatalf("sidecar still there (%v)", err)
	}
}

// TestParentFixture opens a store written by the commit before the
// sidecar went: epochs 1..3 folded into history.db, 4..6 in
// history.db-wal, and a second sidecar frame that repeats epoch 3 with
// other bytes. The rebuilt store must return the rows that commit's Scan
// returned (expected.json), leave one file behind, return the same rows
// from it, and encode rows to the bytes that commit wrote.
func TestParentFixture(t *testing.T) {
	const fixture = "testdata/parent-sidecar"
	var want []Entry
	raw, err := os.ReadFile(filepath.Join(fixture, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "history.db")
	for _, suffix := range []string{"", "-wal"} {
		b, err := os.ReadFile(filepath.Join(fixture, "history.db") + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+suffix, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, pass := range []string{"first open", "second open"} {
		s := mustOpen(t, path, testOpts())
		got, err := s.Scan("default", Query{})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rows %+v (%v), the parent read %+v", pass, got, err, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path + "-wal"); !os.IsNotExist(err) {
			t.Fatalf("%s: sidecar still there (%v)", pass, err)
		}
	}
	// The fixture's main file is the header and one commit of epochs
	// 1..3: committing the same rows again must produce the same file.
	fresh := filepath.Join(t.TempDir(), "history.db")
	s := mustOpen(t, fresh, testOpts())
	for _, e := range want[:3] {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	old, _ := os.ReadFile(filepath.Join(fixture, "history.db"))
	if now, _ := os.ReadFile(fresh); !bytes.Equal(now, old) {
		t.Fatal("committing the fixture's rows does not reproduce the parent's history.db")
	}
}

// TestPruneMaxAge: rows older than the cutoff go from every tenant,
// the file is compacted to the live set, and a prune with nothing to
// drop does not rewrite it.
func TestPruneMaxAge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	now := time.Unix(1700000000, 0).UTC()
	opts := testOpts()
	opts.Now = func() time.Time { return now.Add(100 * time.Second) }
	s := mustOpen(t, path, opts)
	appendN(t, s, "default", 1, 90, now) // entry ep has At = now+ep seconds
	appendN(t, s, "beta", 1, 4, now.Add(80*time.Second))
	// Cutoff at now+40s: default's epochs 1..39 age out, beta is younger.
	removed, err := s.Prune(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 39 {
		t.Fatalf("prune removed %d, want 39", removed)
	}
	got, _ := s.Scan("default", Query{})
	if eps := epochsOf(got); len(eps) != 51 || eps[0] != 40 || eps[50] != 90 {
		t.Fatalf("default after prune: %v", eps)
	}
	if got, _ = s.Scan("beta", Query{}); len(got) != 4 {
		t.Fatalf("beta lost rows: %d", len(got))
	}
	st := s.Stats()
	if st.Pruned != 39 || st.Compactions != 1 || st.Entries != 55 {
		t.Fatalf("stats after prune: %+v", st)
	}
	// No-op prunes don't compact.
	for _, maxAge := range []time.Duration{60 * time.Second, 0} {
		if removed, _ := s.Prune(maxAge); removed != 0 {
			t.Fatalf("prune(%v) after prune removed %d", maxAge, removed)
		}
	}
	if st2 := s.Stats(); st2.Compactions != st.Compactions {
		t.Fatal("no-op prune compacted")
	}
	// Compaction rewrote the main file: the pruned rows are gone from
	// disk, and a reopen sees only the live set.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, path, opts)
	defer s.Close()
	if got, _ = s.Scan("default", Query{}); len(got) != 51 || got[0].Epoch != 40 {
		t.Fatalf("default after prune+reopen: %v", epochsOf(got))
	}
	if st := s.Stats(); st.Entries != 55 {
		t.Fatalf("Entries after prune+reopen = %d", st.Entries)
	}
}

// TestQueryRange pins /v1/history's range semantics on a 40-epoch
// series: inclusive epoch bounds (0 = unbounded), the newest Limit
// kept, oldest first.
func TestQueryRange(t *testing.T) {
	epochs := make([]int64, 40)
	for i := range epochs {
		epochs[i] = int64(i + 1)
	}
	cases := []struct {
		q      Query
		lo, hi int64 // wanted epochs, inclusive; lo > hi for none
	}{
		{Query{}, 1, 40},
		{Query{SinceEpoch: 35}, 35, 40},
		{Query{UntilEpoch: 4}, 1, 4},
		{Query{SinceEpoch: 10, UntilEpoch: 13}, 10, 13},
		{Query{Limit: 3}, 38, 40},
		{Query{SinceEpoch: 10, UntilEpoch: 30, Limit: 5}, 26, 30},
		{Query{Limit: 100}, 1, 40},
		{Query{SinceEpoch: 100}, 1, 0},                // empty range
		{Query{SinceEpoch: 20, UntilEpoch: 10}, 1, 0}, // inverted range is empty
	}
	for _, tc := range cases {
		lo, hi := tc.q.Range(len(epochs), func(i int) int64 { return epochs[i] })
		var got []int64
		if lo < hi {
			got = epochs[lo:hi]
		}
		var want []int64
		for ep := tc.lo; ep <= tc.hi; ep++ {
			want = append(want, ep)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%+v: epochs %v, want %v", tc.q, got, want)
		}
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
	// Rows are durable without Close: reopen a copy of the file.
	copied := filepath.Join(t.TempDir(), "h.db")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copied, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, copied, testOpts())
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
	if _, err := s.Prune(time.Second); err == nil {
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

// TestMaxRows: the bound keeps each tenant's newest rows on append —
// a staged row it trims, a row older than every kept one included, is
// never written — and applies again at Open, where the trimmed file is
// compacted down to the kept rows.
func TestMaxRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.db")
	base := time.Unix(1700000000, 0).UTC()
	s := mustOpen(t, path, testOpts())
	appendN(t, s, "default", 1, 40, base)
	appendN(t, s, "beta", 1, 40, base)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	opts := testOpts()
	opts.MaxRows = 10
	s = mustOpen(t, path, opts)
	defer s.Close()
	if got, _ := s.Scan("default", Query{}); !reflect.DeepEqual(epochsOf(got), []int64{31, 32, 33, 34, 35, 36, 37, 38, 39, 40}) {
		t.Fatalf("default after a bounded open: %v", epochsOf(got))
	}
	if got, _ := s.Scan("beta", Query{}); len(got) != 10 || got[0].Epoch != 31 {
		t.Fatalf("beta after a bounded open: %v", epochsOf(got))
	}
	if st := s.Stats(); st.Pruned != 60 || st.Compactions != 1 || st.Entries != 20 {
		t.Fatalf("stats after a bounded open: %+v", st)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() >= full.Size()/2 {
		t.Fatalf("bounded open left %v bytes of %d (%v)", fi.Size(), full.Size(), err)
	}

	// Staged rows 41..55 trim 41..45 before any commit, and epoch 3 goes
	// as it comes: only 46..55 are written.
	before, _ := os.Stat(path)
	appendN(t, s, "default", 41, 55, base)
	if err := s.Append(entry("default", 3, base)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Scan("default", Query{}); len(got) != 10 || got[0].Epoch != 46 {
		t.Fatalf("default after staged trims: %v", epochsOf(got))
	}
	if st := s.Stats(); st.Pruned != 60+15+1 || st.Appends != 16 || st.Compactions != 1 {
		t.Fatalf("stats after staged trims: %+v", st)
	}
	after, _ := os.Stat(path)
	row := int64(len(`{"tenant":"default","epoch":46,"config_epoch":1,"at":"2023-11-14T22:13:20Z","table":{"epoch":46,"tiers":[{"price":46.5}]}}`))
	if grew := after.Size() - before.Size(); grew > 10*(row+4)+64 {
		t.Fatalf("the commit grew the file by %d bytes, more than the 10 surviving rows", grew)
	}
}
