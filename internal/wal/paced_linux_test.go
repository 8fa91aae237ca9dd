package wal_test

import (
	"syscall"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
	"tieredpricing/internal/wal"
)

// BenchmarkWALPaced prices a sync policy at the ingest rate the
// repository benchmark paces: 30-record datagrams at 5 000/s, five each
// millisecond, for one second an op. It reports what the process spent
// on CPU per datagram (getrusage: the appends, the background syncer and
// the runtime's own work while the pacer sleeps) and the fsyncs issued
// per second. The gap between batch and none is the CPU that group
// commit costs at that rate.
func BenchmarkWALPaced(b *testing.B) {
	const perMs, ms = 5, 1000
	dgrams := replayCorpus(1, perMs*ms, 0, false)
	for _, mode := range []wal.SyncMode{wal.SyncBatch, wal.SyncNone} {
		b.Run(mode.String(), func(b *testing.B) {
			l, err := wal.Open(b.TempDir(), wal.Options{Sync: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			h := netflow.Header{SamplingInterval: 1000}
			fsyncs0, cpu0 := l.Stats().Fsyncs, processCPU(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for t := 0; t < ms; t++ {
					time.Sleep(time.Until(start.Add(time.Duration(t) * time.Millisecond)))
					for _, recs := range dgrams[t*perMs : (t+1)*perMs] {
						if err := l.Append(time.Now(), h, recs); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.StopTimer()
			n := float64(b.N * perMs * ms)
			b.ReportMetric(float64(processCPU(b)-cpu0)/1e3/n, "cpu-us/dgram")
			b.ReportMetric(float64(l.Stats().Fsyncs-fsyncs0)/b.Elapsed().Seconds(), "fsyncs/s")
		})
	}
}

// processCPU is the user and system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
