package stream

import (
	"encoding/json"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/wal"
)

// loaderDatagram is one logged datagram: its arrival and its records.
type loaderDatagram struct {
	ts   time.Time
	h    netflow.Header
	recs []netflow.Record
}

// loaderCorpus is n datagrams of 30 records over 40 buckets, arriving
// evenly over span from base, with sampling intervals of 0, 1 and 100 in
// turn. Every record has its own flow key (First counts up from seq);
// with dup, every datagram is followed by a second router's copy of it.
func loaderCorpus(seed int64, n int, seq uint32, dup bool, base time.Time, span time.Duration) []loaderDatagram {
	rng := rand.New(rand.NewSource(seed))
	var out []loaderDatagram
	for len(out) < n {
		d := loaderDatagram{
			ts:   base.Add(span * time.Duration(len(out)) / time.Duration(n)),
			h:    netflow.Header{SamplingInterval: []uint16{0, 1, 100}[len(out)%3]},
			recs: make([]netflow.Record, netflow.MaxRecordsPerPacket),
		}
		for i := range d.recs {
			k := rng.Intn(40)
			d.recs[i] = netflow.Record{
				SrcAddr: netip.AddrFrom4([4]byte{172, 16, byte(k % 7 << 4), byte(1 + rng.Intn(250))}),
				DstAddr: netip.AddrFrom4([4]byte{10, 0, byte(k), byte(1 + rng.Intn(250))}),
				Packets: 1, Octets: uint32(1 + rng.Intn(1_000_000)), First: seq,
				SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 443, Proto: 6, Output: 1,
			}
			seq++
		}
		out = append(out, d)
		if dup {
			again := d
			again.recs = append([]netflow.Record(nil), d.recs...)
			for i := range again.recs {
				again.recs[i].Input, again.recs[i].Output = 1, 2
			}
			out = append(out, again)
		}
	}
	return out[:n]
}

// logDatagrams writes dgrams into a new log and returns its directory.
func logDatagrams(t *testing.T, dgrams []loaderDatagram) string {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dgrams {
		if err := l.Append(d.ts, d.h, d.recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoaderMatchesIngestAt is recovery's parity gate: a window a Loader
// replays a log into exports byte for byte what IngestAt over the same
// log leaves, and the two replays report the same result — on fresh
// keys, on half-duplicate traffic, on a log whose first slots age out
// mid-replay, on top of an imported checkpoint, on a log with a torn
// tail, and with the dedup key pool running into its bound (every key
// past it counted as dropped). The direct case hands Add what no log
// holds: IPv6 records, which have no dedup key, and datagrams longer
// than a batch.
func TestLoaderMatchesIngestAt(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	window := func(t *testing.T, slots int, at time.Time) *Window {
		w := mustWindow(t, time.Minute, slots)
		w.SetClock(func() time.Time { return at })
		return w
	}
	for _, c := range []struct {
		name  string
		slots int
		log   []loaderDatagram
		// prepare readies each fresh window before the replay.
		prepare func(t *testing.T, w *Window)
		// damage, if set, is applied to the log's only segment.
		damage func(t *testing.T, path string)
	}{
		{name: "fresh", slots: 10, log: loaderCorpus(1, 400, 0, false, base, 5*time.Minute)},
		{name: "half-duplicate", slots: 10, log: loaderCorpus(2, 400, 0, true, base, 5*time.Minute)},
		{name: "aging", slots: 3, log: loaderCorpus(3, 400, 0, true, base, 9*time.Minute)},
		{name: "on-checkpoint", slots: 10, log: loaderCorpus(4, 300, 1<<20, true, base.Add(4*time.Minute), 4*time.Minute),
			prepare: func(t *testing.T, w *Window) {
				src := window(t, 10, base.Add(4*time.Minute))
				for _, d := range loaderCorpus(5, 300, 0, true, base, 4*time.Minute) {
					src.IngestAt(d.ts, d.h, d.recs)
				}
				if err := w.Import(src.Export()); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "torn-tail", slots: 10, log: loaderCorpus(6, 200, 0, false, base, 5*time.Minute),
			damage: func(t *testing.T, path string) {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(path, fi.Size()-100); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "key-pool-bound", slots: 10, log: loaderCorpus(7, 200, 0, true, base, 5*time.Minute),
			prepare: func(t *testing.T, w *Window) {
				// Room for two more key chunks, 1 024 keys, then claimFull.
				w.seen.chunks = make([]keyChunk, maxChunks-2)
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := logDatagrams(t, c.log)
			if c.damage != nil {
				segs, err := filepath.Glob(filepath.Join(dir, "*.log"))
				if err != nil || len(segs) != 1 {
					t.Fatalf("want one segment, have %v (%v)", segs, err)
				}
				c.damage(t, segs[0])
			}
			end := c.log[len(c.log)-1].ts
			serial, loaded := window(t, c.slots, end), window(t, c.slots, end)
			if c.prepare != nil {
				c.prepare(t, serial)
				c.prepare(t, loaded)
			}
			want, err := wal.Replay(dir, wal.Position{}, func(ts time.Time, h netflow.Header, recs []netflow.Record) error {
				serial.IngestAt(ts, h, recs)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			ld := NewLoader(loaded)
			got, err := wal.Replay(dir, wal.Position{}, ld.Add)
			ld.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("loader replay %+v, serial %+v", got, want)
			}
			if c.damage != nil && !got.Torn {
				t.Fatal("the damaged log replayed whole: the case did not exercise a torn tail")
			}
			sameExport(t, serial, loaded)
			if c.name == "key-pool-bound" {
				if _, _, dropped, _ := loaded.Stats(); dropped == 0 {
					t.Fatal("no record dropped: the case did not reach the key pool's bound")
				}
			}
		})
	}

	t.Run("direct", func(t *testing.T) {
		dgrams := loaderCorpus(8, 300, 0, true, base, 5*time.Minute)
		// Datagrams longer than a batch holds, and IPv6 records in them.
		for _, i := range []int{7, 150, 299} {
			long := dgrams[i]
			long.recs = nil
			for j := 0; j < 40; j++ {
				long.recs = append(long.recs, dgrams[(i+j)%len(dgrams)].recs...)
			}
			long.recs[3].SrcAddr = netip.MustParseAddr("2001:db8::1")
			dgrams[i] = long
		}
		end := dgrams[len(dgrams)-1].ts
		serial, loaded := window(t, 10, end), window(t, 10, end)
		ld := NewLoader(loaded)
		for _, d := range dgrams {
			serial.IngestAt(d.ts, d.h, d.recs)
			if err := ld.Add(d.ts, d.h, d.recs); err != nil {
				t.Fatal(err)
			}
		}
		ld.Wait()
		sameExport(t, serial, loaded)
		if records, _, dropped, _ := loaded.Stats(); dropped < 3 || records <= 300*netflow.MaxRecordsPerPacket {
			t.Fatalf("%d records, %d dropped: the case did not exercise long datagrams and unkeyed records", records, dropped)
		}
	})
}

// sameExport fails unless a and b export the same JSON.
func sameExport(t *testing.T, want, got *Window) {
	t.Helper()
	a, err := json.Marshal(want.Export())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got.Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("loader export (%d bytes) differs from serial IngestAt's (%d bytes)", len(b), len(a))
	}
}
