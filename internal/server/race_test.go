package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tieredpricing/internal/stream"
)

// swapSource is a SnapshotSource whose snapshot is swapped from another
// goroutine, the shape of the repricer's atomic publish.
type swapSource struct {
	p atomic.Pointer[stream.Snapshot]
}

func (s *swapSource) Current() *stream.Snapshot { return s.p.Load() }

// TestMetricsScrapeVsSwapRace pins down the scrape-vs-swap safety of the
// hand-rolled Prometheus counters and histograms: /v1/quote and /metrics
// are hammered from many goroutines while a publisher swaps snapshots
// and feeds re-price telemetry, exactly the interleaving a live tierd
// sees between its repricer tick and a scrape during a load test. The
// test's assertions are modest (no torn scrape, counters consistent at
// quiescence) — its real teeth are `go test -race`, which the ci.sh gate
// always runs it under.
func TestMetricsScrapeVsSwapRace(t *testing.T) {
	snapA := makeSnapshot(t)
	// A second epoch of the same market, so the swap changes the pointer
	// the way consecutive reprices do.
	snapB := makeSnapshot(t)

	src := &swapSource{}
	src.p.Store(snapA)
	m := NewMetrics()
	ingest := func() IngestStats { return IngestStats{Packets: 1, Records: 2} }
	s, err := New(Config{
		Sole:    true,
		Metrics: m,
		Ingest:  ingest,
		// A tiny staleness bound keeps the degraded path (stale counter,
		// headers) in play under the race detector too.
		Tenants: []*Tenant{{ID: "default", Snapshots: src, Metrics: m, Ingest: ingest, MaxSnapshotAge: time.Nanosecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup

	// Publisher: swap snapshots and record re-price telemetry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil; i++ {
			if i%2 == 0 {
				src.p.Store(snapB)
			} else {
				src.p.Store(snapA)
			}
			s.proc.ObserveReprice(0.001, i%5 == 0)
			s.proc.RepriceFlows.Set(int64(i))
			s.proc.ConsecutiveFailures.Set(int64(i % 3))
		}
	}()

	hammer := func(path string) {
		defer wg.Done()
		for ctx.Err() == nil {
			req := httptest.NewRequest("GET", path, nil)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if path == "/metrics" {
				// A torn exposition (histogram header without its series)
				// would mean the scrape saw a half-written metric set.
				body := rec.Body.String()
				if strings.Contains(body, "tierd_quote_seconds") &&
					!strings.Contains(body, "tierd_quote_seconds_count") {
					t.Error("torn /metrics exposition")
					return
				}
			}
		}
	}
	for k := 0; k < 4; k++ {
		wg.Add(2)
		go hammer("/v1/quote?src=10.0.0.1&dst=10.1.0.1")
		go hammer("/metrics")
	}
	wg.Wait()

	// At quiescence the per-request counter and the latency histogram
	// must have seen exactly the same requests.
	if got, want := s.proc.QuoteSeconds.Count(), s.proc.QuoteRequests.Value(); got != want {
		t.Errorf("quote latency histogram saw %d requests, counter saw %d", got, want)
	}
	if s.proc.QuoteStale.Value() == 0 {
		t.Error("staleness policy never fired despite 1ns bound")
	}
	if s.proc.QuoteRequests.Value() == 0 || s.proc.MetricsRequests.Value() == 0 {
		t.Error("hammers did not run")
	}
}
