package checkpoint

import (
	"math"
	"math/rand"
	"net/netip"
	"os"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// window20k is a window holding 20 000 aggregates of one record each, as
// the repository benchmark's big tenant preloads them: source /20 ×
// destination /24 pairs drawn from 64 × 2 048, heavy-tailed octets, and
// every record its own dedup key.
func window20k(tb testing.TB, now time.Time) *stream.Window {
	const sources, dests, keys = 64, 2048, 20000
	w, err := stream.NewWindow(traces.AggregateKey, time.Minute, 10)
	if err != nil {
		tb.Fatal(err)
	}
	w.SetClock(func() time.Time { return now })
	rng := rand.New(rand.NewSource(1))
	recs := make([]netflow.Record, 0, netflow.MaxRecordsPerPacket)
	for seq, pair := range rng.Perm(sources * dests)[:keys] {
		src, dst := uint32(pair/dests), uint32(pair%dests)
		octets := uint32(math.Min(math.Max(1e5*math.Exp(1.2*rng.NormFloat64()), 1e3), 3e9))
		recs = append(recs, netflow.Record{
			SrcAddr: v4(172<<24 | 16<<16 | src<<12 + 1 + uint32(rng.Intn(4000))),
			DstAddr: v4(10<<24 | dst<<8 + 1 + uint32(rng.Intn(250))),
			Packets: octets/1000 + 1,
			Octets:  octets,
			First:   uint32(seq),
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstPort: 443,
			Proto:   6,
			Output:  1,
			DstMask: 24,
		})
		if len(recs) == cap(recs) || seq == keys-1 {
			w.Ingest(netflow.Header{}, recs)
			recs = recs[:0]
		}
	}
	if n := len(w.Aggregates()); n != keys {
		tb.Fatalf("window holds %d aggregates, want %d", n, keys)
	}
	return w
}

func v4(a uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

// BenchmarkCheckpoint is recovery's checkpoint half at 20 000 aggregates,
// the row that decides whether the checkpoint earns its load against a
// replay of the records it covers (BenchmarkReplay in internal/wal):
// write is the window's export, encoding and atomic publish; load reads,
// checks and decodes the newest file; import rebuilds a window from the
// loaded state, dedup table included.
func BenchmarkCheckpoint(b *testing.B) {
	now := time.Unix(1_700_000_000, 0)
	w := window20k(b, now)
	dir := b.TempDir()
	path, err := Write(dir, &State{CreatedAt: now, Epoch: 1, Window: w.Export()})
	if err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	loaded, _, err := LoadNewest(dir)
	if err != nil || loaded == nil {
		b.Fatalf("loading the checkpoint just written: %v", err)
	}
	perOp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
		b.ReportMetric(float64(fi.Size()), "bytes")
	}
	b.Run("write", func(b *testing.B) {
		wdir := b.TempDir()
		for i := 0; i < b.N; i++ {
			if _, err := Write(wdir, &State{CreatedAt: now, Epoch: 1, Window: w.Export()}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := Prune(wdir, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		perOp(b)
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if loaded, _, err = LoadNewest(dir); err != nil || loaded == nil {
				b.Fatalf("loading the checkpoint just written: %v", err)
			}
		}
		perOp(b)
	})
	b.Run("import", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			into, err := stream.NewWindow(traces.AggregateKey, time.Minute, 10)
			if err != nil {
				b.Fatal(err)
			}
			into.SetClock(func() time.Time { return now })
			b.StartTimer()
			if err := into.Import(loaded.Window); err != nil {
				b.Fatal(err)
			}
		}
		perOp(b)
	})
}
