package wal_test

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
	"tieredpricing/internal/wal"
)

// replayBuckets is how many aggregation buckets the synthetic traffic
// spreads over: source PoP /20 k%14 to destination /24 k, as the
// repository benchmark's ingest stage draws its 200 keys.
const replayBuckets = 200

// replayCorpus is n datagrams of 30 records each over replayBuckets
// buckets, every record with its own dedup key (First counts up from
// seq). With dup, every datagram is followed by a second router's copy of
// it, so half the records are duplicates.
func replayCorpus(seed int64, n int, seq uint32, dup bool) [][]netflow.Record {
	rng := rand.New(rand.NewSource(seed))
	var out [][]netflow.Record
	for len(out) < n {
		recs := make([]netflow.Record, netflow.MaxRecordsPerPacket)
		for i := range recs {
			k := rng.Intn(replayBuckets)
			if seq < replayBuckets {
				k = int(seq) // the first datagrams name every bucket
			}
			recs[i] = netflow.Record{
				SrcAddr: netip.AddrFrom4([4]byte{172, 16, byte(k % 14 << 4), byte(1 + rng.Intn(250))}),
				DstAddr: netip.AddrFrom4([4]byte{10, 0, byte(k), byte(1 + rng.Intn(250))}),
				Packets: 1,
				Octets:  uint32(1000 + rng.Intn(1_000_000)),
				First:   seq,
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstPort: 443,
				Proto:   6,
				Output:  1,
			}
			seq++
		}
		out = append(out, recs)
		if dup {
			again := append([]netflow.Record(nil), recs...)
			for i := range again {
				again[i].Input, again[i].Output = 1, 2
			}
			out = append(out, again)
		}
	}
	return out[:n]
}

// writeWAL logs datagrams into a new log in dir, datagram i at at(i).
func writeWAL(tb testing.TB, dir string, dgrams [][]netflow.Record, at func(i int) time.Time) {
	tb.Helper()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		tb.Fatal(err)
	}
	for i, recs := range dgrams {
		if err := l.Append(at(i), netflow.Header{SamplingInterval: 1000}, recs); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
}

// replayInto replays dir into w as tierd's recovery does, through a
// stream.Loader, and returns the entries replayed.
func replayInto(tb testing.TB, dir string, w *stream.Window) int {
	tb.Helper()
	ld := stream.NewLoader(w)
	res, err := wal.Replay(dir, wal.Position{}, ld.Add)
	ld.Wait()
	if err != nil || res.Torn {
		tb.Fatalf("replay: %v (torn %v)", err, res.Torn)
	}
	return res.Entries
}

// BenchmarkReplay times recovery's replay of a log shaped like the
// repository benchmark's ingest stage — 30-record datagrams over 200
// buckets, arriving across ten one-minute slots — into a new window, per
// record, through a stream.Loader as tierd's recovery replays: fresh has
// no duplicates, dup is half duplicates. The procs1 cases run the same
// replays at GOMAXPROCS=1, where the loader's two goroutines share one
// core and its hand-offs are pure overhead.
func BenchmarkReplay(b *testing.B) {
	const dgrams, slots = 2000, 10
	base := time.Unix(1_700_000_000, 0)
	at := func(i int) time.Time { return base.Add(time.Duration(i) * slots * time.Minute / dgrams) }
	for _, c := range []struct {
		name  string
		dup   bool
		procs int
	}{{"fresh", false, 0}, {"dup", true, 0}, {"fresh/procs1", false, 1}, {"dup/procs1", true, 1}} {
		b.Run(c.name, func(b *testing.B) {
			dir := b.TempDir()
			writeWAL(b, dir, replayCorpus(1, dgrams, 0, c.dup), at)
			if c.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := stream.NewWindow(traces.AggregateKey, time.Minute, slots)
				if err != nil {
					b.Fatal(err)
				}
				w.SetClock(func() time.Time { return at(dgrams - 1) })
				if n := replayInto(b, dir, w); n != dgrams {
					b.Fatalf("replayed %d of %d datagrams", n, dgrams)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dgrams*netflow.MaxRecordsPerPacket), "ns/rec")
		})
	}
}

// TestReplayAllocs is the allocation gate on recovery: once a slot's
// buckets exist, replaying a datagram of fresh records into it allocates
// nothing — per datagram, rounded down, as testing.AllocsPerRun counts —
// so a replay of 210 datagrams allocates what one of 10 does (the log's
// files and read buffers) give or take fewer than 200 objects.
func TestReplayAllocs(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	slot := func(s int) func(int) time.Time {
		return func(int) time.Time { return base.Add(time.Duration(s) * time.Minute) }
	}
	w, err := stream.NewWindow(traces.AggregateKey, time.Minute, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.SetClock(func() time.Time { return slot(2)(0) })
	// Two slots of 30 000 keys, the first aged out by the time slot 2
	// opens: the dedup table is grown and fresh keys take over dead
	// entries, as in a window that has been rotating for a while. Then
	// slot 2 meets all 200 buckets.
	logs := []struct {
		dgrams [][]netflow.Record
		at     func(int) time.Time
	}{
		{replayCorpus(1, 1000, 0, false), slot(0)},
		{replayCorpus(2, 1000, 1<<20, false), slot(1)},
		{replayCorpus(3, 7, 0, false), slot(2)},
		{replayCorpus(4, 10, 2<<20, false), slot(2)},
		{replayCorpus(5, 210, 3<<20, false), slot(2)},
	}
	mallocs := make([]uint64, len(logs))
	for i, l := range logs {
		dir := t.TempDir()
		writeWAL(t, dir, l.dgrams, l.at)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		replayInto(t, dir, w)
		runtime.ReadMemStats(&m1)
		mallocs[i] = m1.Mallocs - m0.Mallocs
	}
	short, long := mallocs[3], mallocs[4]
	if long > short && (long-short)/200 > 0 {
		t.Fatalf("replaying 210 datagrams into existing buckets allocates %d objects, 10 datagrams %d: %d a datagram, want 0",
			long, short, (long-short)/200)
	}
	if records, dups, dropped, live := w.Stats(); records != 30*2227 || dups != 0 || dropped != 0 || live != 2 {
		t.Fatalf("window holds %d records, %d duplicates, %d dropped, %d live slots: the gate did not exercise what it claims",
			records, dups, dropped, live)
	}
}
