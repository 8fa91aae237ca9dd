package main

// TestTierdChaos is the fault-injection acceptance test: a trace is
// replayed into a live daemon through a deterministic fault harness
// (dropped, duplicated and truncated datagrams; corrupt packets on the
// wire; a resolver outage; a frozen clock driving the window empty),
// while quote traffic hammers the HTTP API. The invariants: quoting
// never goes down (no 5xx, the last good snapshot keeps serving),
// /healthz flips to degraded exactly when the snapshot age crosses the
// staleness threshold, and the final snapshot is byte-identical to the
// batch pipeline run over the successfully-ingested records — which a
// shadow collector chained behind the fault sink observes exactly.
//
// The schedule derives entirely from one seed (CHAOS_SEED, default
// 4242), so a CI failure replays locally with the same environment.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// teeSink fans one decoded datagram out to both the daemon's window
// path and the shadow collector, after the fault sink has had its say.
type teeSink struct{ a, b netflow.Sink }

func (s teeSink) Ingest(h netflow.Header, recs []netflow.Record) {
	s.a.Ingest(h, recs)
	s.b.Ingest(h, recs)
}

func chaosSeed(t *testing.T) int64 {
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 4242
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED %q: %v", s, err)
	}
	return v
}

func TestTierdChaos(t *testing.T) {
	seed := chaosSeed(t)
	ds, err := traces.EUISP(seed)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := writeTraceDir(t, ds, len(streams))

	const maxAge = 30 * time.Minute
	inj := faultinject.New(seed)
	clock := faultinject.NewClock(time.Now())
	shadow := stream.NewCollector(traces.AggregateKey)
	var fsink *faultinject.Sink
	var frv *faultinject.Resolver
	cfg := config{
		listen: "127.0.0.1:0", udp: "127.0.0.1:0", trace: dir,
		model: "ced", alpha: 1.1, s0: 0.2, theta: 0.2,
		strategy: "profit-weighted", tiers: 3,
		window: 4 * time.Hour, slot: time.Hour, reprice: time.Hour,
		maxSnapAge: maxAge, drainGrace: 2 * time.Second,
		wrapSink: func(s netflow.Sink) netflow.Sink {
			fsink = faultinject.NewSink(inj, teeSink{a: s, b: shadow})
			fsink.DropPermille = 40
			fsink.DupPermille = 100
			fsink.TruncPermille = 80
			return fsink
		},
		wrapResolver: func(rv demandfit.EndpointResolver) demandfit.EndpointResolver {
			frv = faultinject.NewResolver(inj, rv)
			return frv
		},
		now: clock.Now,
	}
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.run(ctx, strings.NewReader("")) }()
	base := "http://" + d.httpAddr()

	// tick mirrors the reprice loop's bookkeeping for manually-triggered
	// re-prices, so the /metrics assertions see what the ticker would
	// report.
	tick := func() error {
		snap, rerr := d.members[0].repricer.Reprice(context.Background())
		d.members[0].onTick(snap, 0, rerr)
		return rerr
	}
	metricsBody := func() string {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// --- Phase 1: faulted replay, plus corrupt datagrams on the wire.
	total := replayUDP(t, d.udpAddr(), streams)
	if err := d.udp.Drain(total, 10*time.Second); err != nil {
		t.Log(err) // UDP loss: both sides of the tee missed the datagram
	}
	conn, err := net.Dial("udp", d.udpAddr())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, bad := d.udp.Stats(); bad > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("corrupt datagrams were never counted")
		}
		if _, err := conn.Write([]byte("definitely not a netflow export")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()

	// The window must agree with the shadow collector on everything that
	// survived the faults: drops and truncations hit both identically,
	// and both de-duplicate the injected re-sends.
	deadline = time.Now().Add(10 * time.Second)
	for !demandMatches(d.members[0].window.Aggregates(), shadow.Aggregates()) {
		if time.Now().After(deadline) {
			t.Fatal("window diverged from the shadow collector behind the fault sink")
		}
		time.Sleep(5 * time.Millisecond)
	}
	dropped, duplicated, truncated := fsink.Stats()
	if dropped == 0 || duplicated == 0 || truncated == 0 {
		t.Fatalf("fault classes did not all fire over %d datagrams: drop=%d dup=%d trunc=%d",
			total, dropped, duplicated, truncated)
	}
	t.Logf("seed %d: %d datagrams, %d dropped, %d duplicated, %d truncated",
		seed, total, dropped, duplicated, truncated)

	// --- Phase 2: first re-price; parity with the batch pipeline on the
	// successfully-ingested records.
	if err := tick(); err != nil {
		t.Fatal(err)
	}
	rv := &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true}
	flows, _, err := demandfit.BuildFlows(shadow.Aggregates(), rv, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}
	batchTable, err := stream.BatchTable(flows, econ.CED{Alpha: 1.1}, cost.Linear{Theta: 0.2},
		ds.P0, bundling.ProfitWeighted{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantTable, err := batchTable.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	snap := d.members[0].repricer.Current()
	gotTable, err := snap.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTable, wantTable) {
		t.Fatalf("online table diverges from batch over ingested records:\nonline: %s\nbatch:  %s",
			gotTable, wantTable)
	}
	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after first snapshot: %d, want 200", code)
	}

	// --- Phase 3: quote hammer. Targets are buckets the snapshot serves;
	// through every following fault they must answer 200, never 5xx.
	var targets []netflow.Aggregate
	for _, a := range shadow.Aggregates() {
		if _, ok := snap.Quote(a.SrcAddr, a.DstAddr); ok {
			targets = append(targets, a)
		}
	}
	if len(targets) == 0 {
		t.Fatal("no quotable buckets")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var quoteBad, healthBad atomic.Int64
	client := &http.Client{Timeout: 5 * time.Second}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				a := targets[i%len(targets)]
				resp, err := client.Get(fmt.Sprintf("%s/v1/quote?src=%s&dst=%s", base, a.SrcAddr, a.DstAddr))
				if err != nil {
					quoteBad.Add(1)
					t.Errorf("quote request failed: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					quoteBad.Add(1)
					t.Errorf("quote %s>%s: status %d", a.SrcAddr, a.DstAddr, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(base + "/healthz")
			if err != nil {
				healthBad.Add(1)
				t.Errorf("healthz request failed: %v", err)
				return
			}
			resp.Body.Close()
			// Degraded (503) is a legitimate answer; anything else but OK
			// means health reporting itself broke.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				healthBad.Add(1)
				t.Errorf("healthz: status %d", resp.StatusCode)
				return
			}
		}
	}()

	// --- Phase 4: resolver outage. Re-prices fail, the serving snapshot
	// and epoch hold, the failure metrics climb.
	frv.SetOutage(true)
	for i := 0; i < 2; i++ {
		if err := tick(); err == nil {
			t.Fatal("re-price succeeded during resolver outage")
		}
	}
	frv.SetOutage(false)
	var tiersResp struct {
		Epoch int64 `json:"epoch"`
	}
	if code := getJSON(t, base+"/v1/tiers", &tiersResp); code != http.StatusOK {
		t.Fatalf("/v1/tiers during outage: status %d", code)
	}
	if tiersResp.Epoch != 1 {
		t.Fatalf("epoch = %d after failed re-prices, want 1", tiersResp.Epoch)
	}
	m := metricsBody()
	for _, want := range []string{
		"tierd_reprice_failures_total 2",
		"tierd_reprice_consecutive_failures 2",
		"tierd_snapshot_stale 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q after outage:\n%s", want, m)
		}
	}

	// --- Phase 5: staleness boundary. At exactly maxAge the snapshot is
	// not yet stale; one minute past it, /healthz degrades while /v1/quote
	// keeps answering with the stale marker.
	clock.Advance(maxAge)
	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz at the staleness boundary: %d, want 200", code)
	}
	clock.Advance(time.Minute)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz past the staleness boundary: %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(health), "degraded") {
		t.Fatalf("healthz body %q does not report degraded", health)
	}
	a := targets[0]
	resp, err = http.Get(fmt.Sprintf("%s/v1/quote?src=%s&dst=%s", base, a.SrcAddr, a.DstAddr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale quote: status %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Tierd-Stale") != "true" {
		t.Error("stale quote missing X-Tierd-Stale: true")
	}
	if resp.Header.Get("X-Tierd-Snapshot-Age") == "" {
		t.Error("stale quote missing X-Tierd-Snapshot-Age")
	}
	if !strings.Contains(metricsBody(), "tierd_snapshot_stale 1") {
		t.Error("metrics do not report the stale snapshot")
	}

	// --- Phase 6: empty-window stretch. The clock outruns the window
	// span, the re-price sees nothing, and the last snapshot still serves.
	clock.Advance(6 * time.Hour)
	if err := tick(); !errors.Is(err, stream.ErrEmptyWindow) {
		t.Fatalf("re-price over the expired window: %v, want ErrEmptyWindow", err)
	}
	if got := d.members[0].repricer.Current(); got != snap {
		t.Fatal("empty-window re-price displaced the serving snapshot")
	}
	if !strings.Contains(metricsBody(), "tierd_reprice_consecutive_failures 3") {
		t.Error("ingest gap not counted as a consecutive failure")
	}

	// --- Phase 7: drain. The hammer saw zero quote failures; shutdown
	// completes despite the empty window, and the final snapshot is still
	// the batch-parity one.
	close(stop)
	wg.Wait()
	if quoteBad.Load() != 0 || healthBad.Load() != 0 {
		t.Fatalf("serving faltered under chaos: %d bad quotes, %d bad health checks",
			quoteBad.Load(), healthBad.Load())
	}
	// Release pooled keep-alive connections so the server's bounded
	// shutdown is not held open by the test's own clients.
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	inj.Disable()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
	final := d.members[0].repricer.Current()
	if final.Epoch != 1 {
		t.Fatalf("final epoch = %d, want the retained first snapshot", final.Epoch)
	}
	finalTable, err := final.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalTable, wantTable) {
		t.Fatalf("final snapshot diverges from the batch pipeline:\nfinal: %s\nbatch: %s",
			finalTable, wantTable)
	}
}
