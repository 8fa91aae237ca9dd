package main

// Shard-count acceptance tests: the daemon's externally visible state —
// /v1/tiers, the exported window — must be byte-identical at every
// -ingest-shards setting, to each other and to the batch pipeline, and
// durable state written at one shard count must restore at any other.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTierdShardParity(t *testing.T) {
	ds, err := traces.EUISP(71)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	traceDir := writeTraceDir(t, ds, len(streams))
	grams := traceDatagrams(t, streams)
	clock := faultinject.NewClock(time.Unix(1_700_000_000, 0))

	// Shadow: the plain single-lock window fed the same datagrams at the
	// same instants, priced the batch way.
	shadow, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	shadow.SetClock(clock.Now)
	for i := range grams {
		grams[i].ts = clock.Now()
		shadow.IngestAt(grams[i].ts, grams[i].h, grams[i].recs)
	}
	wantState := exportJSON(t, shadow)
	wantTable := shadowTable(t, ds, shadow, clock.Now)

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := config{
				listen: "127.0.0.1:0", udp: "127.0.0.1:0", trace: traceDir,
				model: "ced", alpha: 1.1, s0: 0.2, theta: 0.2,
				strategy: "profit-weighted", tiers: 3,
				window: 4 * time.Hour, slot: time.Hour, reprice: time.Hour,
				workers: 4, ingestShards: shards,
				now: clock.Now,
			}
			d, err := startDaemon(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			runErr := make(chan error, 1)
			go func() { runErr <- d.run(ctx, strings.NewReader("")) }()

			for _, g := range grams {
				d.sink.Ingest(g.h, g.recs)
			}
			if got := exportJSON(t, d.members[0].window); !bytes.Equal(got, wantState) {
				t.Error("window state diverges from the single-lock shadow")
			}
			if _, err := d.members[0].repricer.Reprice(context.Background()); err != nil {
				t.Fatal(err)
			}

			var tiersResp struct {
				Table json.RawMessage `json:"table"`
			}
			if code := getJSON(t, "http://"+d.httpAddr()+"/v1/tiers", &tiersResp); code != http.StatusOK {
				t.Fatalf("/v1/tiers: status %d", code)
			}
			if !bytes.Equal([]byte(tiersResp.Table), wantTable) {
				t.Fatalf("/v1/tiers at shards=%d diverges from batch pipeline:\ngot  %s\nwant %s",
					shards, tiersResp.Table, wantTable)
			}

			// The per-shard ingest counters are exposed and account for
			// every record the window accepted.
			resp, err := http.Get("http://" + d.httpAddr() + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < shards; s++ {
				if want := fmt.Sprintf(`tierd_ingest_shard_records_total{shard="%d"}`, s); !strings.Contains(string(body), want) {
					t.Errorf("metrics missing %s", want)
				}
			}
			if !strings.Contains(string(body), "tierd_ingest_socket_drops_total") {
				t.Error("metrics missing tierd_ingest_socket_drops_total")
			}

			cancel()
			select {
			case err := <-runErr:
				if err != nil {
					t.Fatalf("run: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("daemon did not drain after cancellation")
			}
		})
	}
}

// TestRecoveryShardCount restarts a durable daemon at a different
// -ingest-shards than wrote the state: checkpoints are canonical merged
// window state, so any shard count restores any other's data dir.
func TestRecoveryShardCount(t *testing.T) {
	for _, tc := range []struct{ before, after int }{{1, 4}, {4, 1}, {2, 8}} {
		t.Run(fmt.Sprintf("%d_to_%d", tc.before, tc.after), func(t *testing.T) {
			runRecoveryShardCount(t, tc.before, tc.after)
		})
	}
}

func runRecoveryShardCount(t *testing.T, before, after int) {
	ds, err := traces.EUISP(73)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	traceDir := writeTraceDir(t, ds, len(streams))
	dataDir := t.TempDir()
	grams := traceDatagrams(t, streams)
	clock := faultinject.NewClock(time.Unix(1_700_000_000, 0))

	cfg := recoverConfig(traceDir, dataDir, clock.Now)
	cfg.ingestShards = before
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Two thirds before a checkpoint, the rest left in the WAL tail, so
	// recovery exercises both the checkpoint import re-hash and replay.
	two := 2 * len(grams) / 3
	for i := 0; i < two; i++ {
		grams[i].ts = clock.Now()
		d.sink.Ingest(grams[i].h, grams[i].recs)
	}
	if _, err := d.members[0].repricer.Reprice(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.members[0].durable.checkpoint(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	for i := two; i < len(grams); i++ {
		grams[i].ts = clock.Now()
		d.sink.Ingest(grams[i].h, grams[i].recs)
	}
	// Crash without a clean shutdown (no final checkpoint, no WAL close).
	if err := d.members[0].durable.log.Sync(); err != nil {
		t.Fatal(err)
	}
	d.close()

	cfg2 := recoverConfig(traceDir, dataDir, clock.Now)
	cfg2.ingestShards = after
	d2, err := startDaemon(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d2.members[0].durable.log.Close()
		d2.close()
	}()

	shadow, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	shadow.SetClock(clock.Now)
	for _, g := range grams {
		shadow.IngestAt(g.ts, g.h, g.recs)
	}
	if !bytes.Equal(exportJSON(t, d2.members[0].window), exportJSON(t, shadow)) {
		t.Fatalf("window recovered at shards=%d from shards=%d state diverges from shadow", after, before)
	}
	snap := d2.members[0].repricer.Current()
	if snap == nil {
		t.Fatal("no snapshot after warm restart")
	}
	gotTable, err := snap.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if wantTable := shadowTable(t, ds, shadow, clock.Now); !bytes.Equal(gotTable, wantTable) {
		t.Fatalf("recovered tier table diverges:\ngot  %s\nwant %s", gotTable, wantTable)
	}

	// Dedup state survived the re-hash: a replayed datagram is still
	// recognized as duplicate, not double-counted.
	_, dup0, _, _ := d2.members[0].window.Stats()
	d2.sink.Ingest(grams[0].h, grams[0].recs)
	_, dup1, _, _ := d2.members[0].window.Stats()
	if dup1 <= dup0 {
		t.Errorf("re-ingested datagram not deduplicated after shard-count change (%d -> %d)", dup0, dup1)
	}
	// The duplicate bumped the lifetime counter but contributed nothing
	// to demand.
	got := mustMarshal(t, d2.members[0].window.Aggregates())
	want := mustMarshal(t, shadow.Aggregates())
	if !bytes.Equal(got, want) {
		t.Error("duplicate replay after recovery changed the aggregates")
	}
}
