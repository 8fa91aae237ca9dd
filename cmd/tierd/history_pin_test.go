package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/traces"
)

// historyBodiesGolden holds the /v1/history bodies TestHistoryBodiesPinned
// fetches, as the tierd that still kept an in-memory history ring beside
// the store served them. A change to how history is recorded or stored
// must leave every byte alone.
const historyBodiesGolden = "testdata/history-bodies.golden"

// TestHistoryBodiesPinned drives a sole tenant (no durable state) and a
// two-tenant fleet (with -data-dir) through six manual re-prices on an
// injected clock — three under config epoch 1, three after a hot reload
// under epoch 2, with -history-ring 4 — and compares every /v1/history
// body, across since, until and limit, with the golden byte for byte.
func TestHistoryBodiesPinned(t *testing.T) {
	ds, err := traces.EUISP(21)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	traceDir := writeTraceDir(t, ds, len(streams))
	grams := traceDatagrams(t, streams)
	queries := []string{"", "?since=4", "?until=4", "?limit=2", "?since=3&until=5&limit=2", "?since=5&until=4", "?since=100"}

	var out bytes.Buffer
	run := func(name string, cfg config, feed func(d *daemon), paths []string) {
		t.Helper()
		tmp := t.TempDir()
		clock := faultinject.NewClock(time.Unix(1_700_000_000, 0))
		cfg.now = clock.Now
		cfg.historyRing = 4
		cfg.configFile = filepath.Join(tmp, "pricing.json")
		writeConfigFile(t, cfg.configFile, `{}`)
		d, err := startDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.abort()
		feed(d)
		for i := 0; i < 6; i++ {
			if i == 3 {
				writeConfigFile(t, cfg.configFile, `{"theta": 0.25, "tiers": 4}`)
				if err := d.reloadConfig(); err != nil {
					t.Fatal(err)
				}
			}
			clock.Advance(time.Minute)
			for _, m := range d.members {
				m.repriceOnce(context.Background())
			}
		}
		for _, p := range paths {
			for _, q := range queries {
				resp, err := http.Get("http://" + d.httpAddr() + p + q)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s GET %s%s %d\n%s", name, p, q, resp.StatusCode, body)
			}
		}
	}

	run("sole", recoverConfig(traceDir, "", nil), func(d *daemon) {
		for _, g := range grams {
			d.sink.Ingest(g.h, g.recs)
		}
	}, []string{"/v1/history", "/v1/t/default/history"})

	specPath := writeSpecFile(t, t.TempDir(), `{"tenants": [
		{"id": "net-a", "routers": [1], "default": true},
		{"id": "net-b", "routers": [2]}
	]}`)
	fleet := recoverConfig(traceDir, t.TempDir(), nil)
	fleet.tenantsFile = specPath
	run("fleet", fleet, func(d *daemon) {
		for i, g := range grams {
			h := g.h
			h.EngineID = uint8(1 + i%2)
			d.sink.Ingest(h, g.recs)
		}
	}, []string{"/v1/history", "/v1/t/net-a/history", "/v1/t/net-b/history"})

	want, err := os.ReadFile(historyBodiesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("/v1/history bodies diverge from %s:\n%s", historyBodiesGolden, out.Bytes())
	}
}
