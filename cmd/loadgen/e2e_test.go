package main

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/server"
	"tieredpricing/internal/sloreport"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// concatStreams renders a dataset's per-router NetFlow streams into one
// deterministic tracegen-style pipe.
func concatStreams(t testing.TB, streams map[string][]byte) []byte {
	t.Helper()
	routers := make([]string, 0, len(streams))
	for r := range streams {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	var buf bytes.Buffer
	for _, r := range routers {
		buf.Write(streams[r])
	}
	return buf.Bytes()
}

// TestLoadgenEndToEnd is the harness's acceptance test: an in-process
// tierd serving stack (window → repricer → HTTP server, with a live UDP
// collector), loadgen at a low fixed rate for a bounded window, and the
// SLO report checked for parseability, achieved-QPS tolerance, zero
// errors, and monotone quantiles.
// repriceEvery re-prices on a plain ticker until ctx is cancelled: the
// in-process stand-in for tierd's tick loop. Failures (an empty window
// before the replay lands) just wait for the next tick.
func repriceEvery(ctx context.Context, rp *stream.Repricer, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			_, _ = rp.Reprice(ctx)
		}
	}
}

func TestLoadgenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load test")
	}
	ds, err := traces.EUISP(91)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	datagrams, pairs, err := LoadStream(bytes.NewReader(concatStreams(t, streams)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("trace yields no quotable pairs")
	}

	// In-process tierd: the same window → repricer → server chain
	// cmd/tierd wires, with the repricer ticking fast enough that the
	// NetFlow push causes several reprices inside the measured window.
	w, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	collector, err := netflow.NewCollectorServer("127.0.0.1:0", w)
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	rp, err := stream.NewRepricer(stream.Config{
		Window:      w,
		Resolver:    &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true},
		Demand:      econ.CED{Alpha: 1.1},
		Cost:        cost.Linear{Theta: 0.2},
		P0:          ds.P0,
		Strategy:    bundling.ProfitWeighted{},
		Tiers:       3,
		DurationSec: ds.DurationSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		repriceEvery(ctx, rp, 250*time.Millisecond)
	}()
	srv, err := server.New(server.Config{Snapshots: rp})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const targetQPS = 150.0
	rep, err := Run(ctx, Options{
		Target:        ts.URL,
		Datagrams:     datagrams,
		Pairs:         pairs,
		QPS:           targetQPS,
		Duration:      2 * time.Second,
		Workers:       8,
		NetflowAddr:   collector.Addr(),
		NetflowPPS:    100,
		Warmup:        true,
		WarmupTimeout: 60 * time.Second,
		Seed:          5,
		PID:           os.Getpid(),
		Profile:       "e2e",
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-repDone

	// The report round-trips through the schema loader (which validates).
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	parsed, err := sloreport.ReadFile(path)
	if err != nil {
		t.Fatalf("report does not parse back: %v", err)
	}
	if parsed.Profile != "e2e" || parsed.Requests != rep.Requests {
		t.Errorf("round-trip mismatch: %+v vs %+v", parsed, rep)
	}

	// Open-loop at 150 qps on loopback must hit its schedule.
	if frac := math.Abs(rep.AchievedQPS-targetQPS) / targetQPS; frac > 0.20 {
		t.Errorf("achieved %.1f qps is %.0f%% off the %.0f target", rep.AchievedQPS, frac*100, targetQPS)
	}
	if rep.Errors != 0 || rep.ErrorRate != 0 {
		t.Errorf("error rate %.4f (%d errors, %d misses) on a healthy daemon",
			rep.ErrorRate, rep.Errors, rep.Misses)
	}

	// Quantiles must be monotone and populated.
	l := rep.Latency
	if !(l.P50Ns <= l.P90Ns && l.P90Ns <= l.P99Ns && l.P99Ns <= l.P999Ns && l.P999Ns <= l.MaxNs) {
		t.Errorf("quantiles not monotone: %+v", l)
	}
	if l.P50Ns <= 0 {
		t.Errorf("p50 %d ns: latency not recorded", l.P50Ns)
	}

	// The concurrent NetFlow push ran and the daemon process was sampled.
	if rep.Netflow.Datagrams == 0 {
		t.Error("netflow push sent nothing")
	}
	if !rep.Proc.Sampled || rep.Proc.MaxRSSBytes <= 0 {
		t.Errorf("proc sampling missing: %+v", rep.Proc)
	}
}
