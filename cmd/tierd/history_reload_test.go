package main

// Durable history + hot-reload acceptance tests.
//
// The recorder-level tests pin the store/ring contract: the in-memory
// ring is a strict cache of the store's newest entries (parity under
// random range queries), and the (tenant, epoch) append key makes
// history immune to double-append when a crash restores an older
// checkpoint. The daemon-level tests drive the zero-downtime reload
// path under concurrent quote load (run with -race in CI) and the
// out-of-process kill -9 + SIGHUP cycle against a real binary.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tieredpricing/internal/histstore"
	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// fakeTableSnap fabricates a published snapshot whose table bytes are
// unique per (epoch, price), so first-writer-wins is observable.
func fakeTableSnap(epoch int64, price float64, at time.Time) *stream.Snapshot {
	return &stream.Snapshot{
		Epoch:    epoch,
		FittedAt: at,
		Table: stream.TierTable{
			Model: "ced", Strategy: "profit-weighted", P0: 1.5, Flows: int(epoch),
			Tiers: []stream.TierQuote{{Tier: 0, Price: price, Flows: 1, DemandMbps: 2}},
		},
	}
}

func openTestStore(t *testing.T, path string) *histstore.Store {
	t.Helper()
	st, err := histstore.Open(path, histstore.Options{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// refFilterHistory is the reference since/until/limit semantics:
// inclusive epoch bounds (0 = unbounded), newest-limit kept,
// oldest-first order.
func refFilterHistory(all []server.HistoryEntry, since, until int64, limit int) []server.HistoryEntry {
	var out []server.HistoryEntry
	for _, e := range all {
		if since != 0 && e.Epoch < since {
			continue
		}
		if until != 0 && e.Epoch > until {
			continue
		}
		out = append(out, e)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

func histEntriesEqual(t *testing.T, label string, got, want []server.HistoryEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Epoch != w.Epoch || g.ConfigEpoch != w.ConfigEpoch || !g.At.Equal(w.At) ||
			string(g.Table) != string(w.Table) {
			t.Fatalf("%s: entry %d diverges:\ngot  %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestHistoryStoreRingParity is the store-vs-ring property test: after
// recording a long series, the ring must be exactly the store's newest
// window, and seeded random range queries against the store must match
// a reference filter over the full series.
func TestHistoryStoreRingParity(t *testing.T) {
	const total, ringMax = 600, 64
	store := openTestStore(t, filepath.Join(t.TempDir(), "history.db"))
	rec := newHistRecorder("default", ringMax, store, nil)
	base := time.Unix(1700000000, 0).UTC()

	var all []server.HistoryEntry
	for ep := int64(1); ep <= total; ep++ {
		snap := fakeTableSnap(ep, float64(ep)+0.25, base.Add(time.Duration(ep)*time.Second))
		rec.record(snap)
		table, err := snap.Table.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, server.HistoryEntry{
			At: snap.FittedAt, Epoch: ep, ConfigEpoch: 1, Table: json.RawMessage(table),
		})
	}

	full, err := rec.scan(server.HistoryQuery{})
	if err != nil {
		t.Fatal(err)
	}
	histEntriesEqual(t, "full store scan", full, all)

	// The ring is a strict cache of the store's newest ringMax entries.
	tail, err := rec.scan(server.HistoryQuery{Limit: ringMax})
	if err != nil {
		t.Fatal(err)
	}
	histEntriesEqual(t, "ring vs store tail", rec.snapshot(), tail)

	rnd := rand.New(rand.NewSource(recoverSeed(t)))
	for i := 0; i < 300; i++ {
		since := rnd.Int63n(total + 50)
		until := rnd.Int63n(total + 50)
		limit := rnd.Intn(ringMax + 20)
		got, err := rec.scan(server.HistoryQuery{Since: since, Until: until, Limit: limit})
		if err != nil {
			t.Fatalf("scan(since=%d until=%d limit=%d): %v", since, until, limit, err)
		}
		want := refFilterHistory(all, since, until, limit)
		histEntriesEqual(t, fmt.Sprintf("query since=%d until=%d limit=%d", since, until, limit), got, want)
	}
}

// TestHistoryRestoreDoubleAppend: a crash recovered from an OLDER
// checkpoint replays epochs the store already holds. The (tenant,
// epoch) append key must keep the first-written row for each — the
// series stays one row per epoch with the original bytes — and the
// dedup must hold across a store reopen (the crash-durable form).
func TestHistoryRestoreDoubleAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.db")
	store := openTestStore(t, path)
	base := time.Unix(1700000000, 0).UTC()
	at := func(ep int64) time.Time { return base.Add(time.Duration(ep) * time.Second) }

	// First life: epochs 1..10 published and stored.
	recA := newHistRecorder("default", 512, store, nil)
	for ep := int64(1); ep <= 10; ep++ {
		recA.record(fakeTableSnap(ep, float64(ep)+0.25, at(ep)))
	}

	// Crash; recovery loads a checkpoint from epoch 5. The restored ring
	// is backfilled into the store, and the repricer re-publishes epochs
	// 6..10 with (deliberately different) tables before moving on.
	older := recA.checkpointEntries()[:5]
	recB := newHistRecorder("default", 512, store, nil)
	recB.restore(older, 5)
	for ep := int64(6); ep <= 13; ep++ {
		recB.record(fakeTableSnap(ep, float64(ep)+100, at(ep)))
	}

	verify := func(st *histstore.Store, label string) {
		t.Helper()
		rows, err := st.Scan("default", histstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 13 {
			t.Fatalf("%s: %d rows, want 13 (one per epoch)", label, len(rows))
		}
		for i, row := range rows {
			wantEpoch := int64(i + 1)
			if row.Epoch != wantEpoch {
				t.Fatalf("%s: row %d has epoch %d, want %d", label, i, row.Epoch, wantEpoch)
			}
			var tbl struct {
				Tiers []struct {
					Price float64 `json:"price_usd_per_mbps_month"`
				} `json:"tiers"`
			}
			if err := json.Unmarshal(row.Table, &tbl); err != nil || len(tbl.Tiers) != 1 {
				t.Fatalf("%s: row %d table %s: %v", label, i, row.Table, err)
			}
			want := float64(wantEpoch) + 0.25 // the first-written row
			if wantEpoch > 10 {
				want = float64(wantEpoch) + 100 // only published in the second life
			}
			if tbl.Tiers[0].Price != want {
				t.Fatalf("%s: epoch %d kept price %v, want first-written %v",
					label, wantEpoch, tbl.Tiers[0].Price, want)
			}
		}
	}
	verify(store, "live store")
	if dupes := store.Stats().Dupes; dupes == 0 {
		t.Error("restore replay recorded no dupes — the idempotent path never ran")
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	verify(openTestStore(t, path), "reopened store")
}

// reloadTestConfig is the in-process daemon config for the reload
// tests: manual re-prices (huge interval), a tiny ring so /v1/history
// depth proves the store path, and a -config file under tmp.
func reloadTestConfig(traceDir, tmp string) config {
	return config{
		listen: "127.0.0.1:0", trace: traceDir,
		model: "ced", alpha: 1.1, s0: 0.2, theta: 0.2,
		strategy: "profit-weighted", tiers: 3,
		window: 4 * time.Hour, slot: time.Hour, reprice: time.Hour,
		drainGrace:   2 * time.Second,
		historyStore: filepath.Join(tmp, "history.db"),
		historyRing:  4,
		configFile:   filepath.Join(tmp, "pricing.json"),
	}
}

func writeConfigFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReloadUnderLoad drives hot reloads (direct calls and a real
// SIGHUP) while goroutines hammer the quote path: zero non-200
// responses, monotone config epochs in the store-backed history, and
// failed reloads leaving the config generation untouched. Run under
// -race this is also the reload/quote/reprice race test.
func TestReloadUnderLoad(t *testing.T) {
	seed := recoverSeed(t)
	ds, err := traces.EUISP(seed)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	traceDir := writeTraceDir(t, ds, len(streams))
	grams := traceDatagrams(t, streams)
	tmp := t.TempDir()
	cfg := reloadTestConfig(traceDir, tmp)
	writeConfigFile(t, cfg.configFile, `{"tiers": 3}`)

	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	defer d.histStore.Close()
	for _, g := range grams {
		d.sink.Ingest(g.h, g.recs)
	}
	doReprice := func() {
		t.Helper()
		start := time.Now()
		snap, err := d.members[0].repricer.Reprice(context.Background())
		d.members[0].onTick(snap, time.Since(start), err)
		if err != nil {
			t.Fatalf("reprice: %v", err)
		}
	}
	doReprice() // epoch 1 under config generation 1

	base := "http://" + d.httpAddr()
	quoteURL := fmt.Sprintf("%s/v1/quote?src=%s&dst=%s", base, ds.Meta[0].SrcIP, ds.Meta[0].DstPrefix.Addr().Next())
	tiersURL := base + "/v1/tiers"
	resp, err := http.Get(quoteURL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("quote warm-up: %v %+v", err, resp)
	}
	resp.Body.Close()

	// Quote load: four clients alternating quote and tiers for the whole
	// reload sequence. Every response must be a 200.
	var stopLoad atomic.Bool
	var non200, okReqs atomic.Int64
	var wg sync.WaitGroup
	urls := []string{quoteURL, tiersURL}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			for !stopLoad.Load() {
				resp, err := http.Get(u)
				if err != nil {
					non200.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					non200.Add(1)
				} else {
					okReqs.Add(1)
				}
			}
		}(urls[i%2])
	}

	// Six valid reloads (changing tier count and theta), each followed
	// by a re-price that publishes under the new generation.
	const reloads = 6
	for i := 0; i < reloads; i++ {
		tiers := 2 + i%4
		writeConfigFile(t, cfg.configFile, fmt.Sprintf(`{"tiers": %d, "theta": 0.2%d}`, tiers, i))
		if err := d.reloadConfig(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		doReprice()
		if got := len(d.members[0].repricer.Current().Table.Tiers); got != tiers {
			t.Fatalf("reload %d: snapshot has %d tiers, want %d", i, got, tiers)
		}
	}

	// Failed reloads must not move the generation: invalid value,
	// unknown key, and unparseable JSON.
	epochBefore := d.reload.epoch()
	for _, bad := range []string{`{"tiers": 0}`, `{"bogus": 1}`, `{`} {
		writeConfigFile(t, cfg.configFile, bad)
		if err := d.reloadConfig(); err == nil {
			t.Fatalf("reload of %q succeeded, want error", bad)
		}
	}
	if got := d.reload.epoch(); got != epochBefore {
		t.Fatalf("failed reloads moved the config epoch %d -> %d", epochBefore, got)
	}

	// The real signal path: SIGHUP on the watcher must reload too.
	stopWatcher := d.startReloadWatcher()
	defer stopWatcher()
	writeConfigFile(t, cfg.configFile, `{"tiers": 3}`)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.reload.stats().Reloads != reloads+1 {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never landed (stats %+v)", d.reload.stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	stopLoad.Store(true)
	wg.Wait()
	if n := non200.Load(); n != 0 {
		t.Errorf("%d non-200 quote responses across reloads (%d OK)", n, okReqs.Load())
	}
	if okReqs.Load() == 0 {
		t.Error("load generator made no successful requests")
	}

	// History is store-backed (deeper than the 4-entry ring) and its
	// config epochs are monotone, ending at the last re-priced
	// generation.
	var hist struct {
		Entries []struct {
			Epoch       int64 `json:"epoch"`
			ConfigEpoch int64 `json:"config_epoch"`
		} `json:"entries"`
	}
	if code := getJSON(t, base+"/v1/history", &hist); code != http.StatusOK {
		t.Fatalf("/v1/history: %d", code)
	}
	if len(hist.Entries) != reloads+1 {
		t.Fatalf("history has %d entries, want %d (one per published epoch)", len(hist.Entries), reloads+1)
	}
	if len(hist.Entries) <= cfg.historyRing {
		t.Fatalf("history depth %d does not exceed the ring (%d) — store path unused", len(hist.Entries), cfg.historyRing)
	}
	var prev int64
	for i, e := range hist.Entries {
		if e.ConfigEpoch < prev {
			t.Fatalf("config epochs regress at entry %d: %d after %d", i, e.ConfigEpoch, prev)
		}
		prev = e.ConfigEpoch
	}
	if prev != reloads+1 {
		t.Errorf("last history entry has config epoch %d, want %d", prev, reloads+1)
	}

	// The /metrics view agrees: epoch = 1 boot + 6 loop reloads + 1
	// SIGHUP; three failed reloads counted.
	checks := map[string]float64{
		"tierd_config_epoch":               float64(reloads + 2),
		"tierd_config_reloads_total":       float64(reloads + 1),
		"tierd_config_reload_errors_total": 3,
		"tierd_history_entries":            float64(reloads + 1),
	}
	for name, want := range checks {
		if got, ok := metricValue(t, d.httpAddr(), name); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

// TestFleetHistoryNamespacing: a fleet shares ONE history store,
// namespaced by tenant, and a hot reload is all-or-nothing across
// tenants with a single process-wide config epoch.
func TestFleetHistoryNamespacing(t *testing.T) {
	seed := recoverSeed(t)
	ds, err := traces.EUISP(seed)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	traceDir := writeTraceDir(t, ds, len(streams))
	grams := traceDatagrams(t, streams)
	tmp := t.TempDir()
	specPath := writeSpecFile(t, tmp, `{"tenants": [
		{"id": "net-a", "routers": [1]},
		{"id": "net-b", "routers": [2]}
	]}`)
	cfg := fleetConfig(traceDir, specPath)
	cfg.historyStore = filepath.Join(tmp, "history.db")
	cfg.historyRing = 4
	cfg.configFile = filepath.Join(tmp, "pricing.json")
	writeConfigFile(t, cfg.configFile, `{}`)

	h := startFleetHarness(t, cfg)
	h.ingestAs(1, grams)
	h.ingestAs(2, grams)
	h.waitTenantServing(t, "net-a")
	h.waitTenantServing(t, "net-b")

	// Let both tenants publish past the ring depth, then reload.
	base := "http://" + h.d.httpAddr()
	waitEpoch := func(id string, min int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			var tr struct {
				Epoch int64 `json:"epoch"`
			}
			if code := getJSON(t, base+"/v1/t/"+id+"/tiers", &tr); code == http.StatusOK && tr.Epoch >= min {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %s never reached epoch %d", id, min)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitEpoch("net-a", 6)
	waitEpoch("net-b", 6)

	if got := h.d.histStore.Tenants(); len(got) != 2 || got[0] != "net-a" || got[1] != "net-b" {
		t.Fatalf("store tenants = %v, want [net-a net-b]", got)
	}
	for _, id := range []string{"net-a", "net-b"} {
		var hist struct {
			Entries []struct {
				Epoch int64 `json:"epoch"`
			} `json:"entries"`
		}
		if code := getJSON(t, base+"/v1/t/"+id+"/history", &hist); code != http.StatusOK {
			t.Fatalf("tenant %s history: %d", id, code)
		}
		if len(hist.Entries) <= cfg.historyRing {
			t.Fatalf("tenant %s history depth %d does not exceed the ring (%d)", id, len(hist.Entries), cfg.historyRing)
		}
		for i, e := range hist.Entries {
			if e.Epoch != int64(i)+1 {
				t.Fatalf("tenant %s history entry %d has epoch %d — cross-tenant bleed or gap", id, i, e.Epoch)
			}
		}
	}

	// Process-wide reload: one epoch bump covers both tenants.
	writeConfigFile(t, cfg.configFile, `{"theta": 0.21}`)
	if err := h.d.reloadConfig(); err != nil {
		t.Fatal(err)
	}
	if got := h.d.reload.epoch(); got != 2 {
		t.Fatalf("config epoch %d after fleet reload, want 2", got)
	}
	for _, id := range []string{"net-a", "net-b"} {
		deadline := time.Now().Add(30 * time.Second)
		for {
			var hist struct {
				Entries []struct {
					ConfigEpoch int64 `json:"config_epoch"`
				} `json:"entries"`
			}
			getJSON(t, base+"/v1/t/"+id+"/history", &hist)
			if n := len(hist.Entries); n > 0 && hist.Entries[n-1].ConfigEpoch == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %s never published under config epoch 2", id)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// All-or-nothing: a spec-level failure for any tenant rejects the
	// reload for all, leaving the epoch untouched.
	writeConfigFile(t, cfg.configFile, `{"strategy": "no-such-strategy"}`)
	if err := h.d.reloadConfig(); err == nil {
		t.Fatal("reload with a bogus strategy succeeded")
	}
	if got := h.d.reload.epoch(); got != 2 {
		t.Fatalf("failed fleet reload moved the config epoch to %d", got)
	}
}

// TestTierdHistoryKill9Reload is the out-of-process cycle: a real
// tierd with -history-store and -config ingests over UDP, hot-reloads
// on a real SIGHUP, is SIGKILLed, and restarts. The restarted
// /v1/history must still serve the full series from the store —
// including epochs that fell out of both the ring and checkpoint
// retention — with the config-epoch step preserved, and the restore
// replay must dedup instead of double-appending.
func TestTierdHistoryKill9Reload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	seed := recoverSeed(t)
	ds, err := traces.EUISP(seed)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	traceDir := writeTraceDir(t, ds, len(streams))
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "tierd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tierd: %v\n%s", err, out)
	}
	cfgPath := filepath.Join(tmp, "pricing.json")
	writeConfigFile(t, cfgPath, `{"tiers": 3}`)

	args := []string{
		"-trace", traceDir, "-listen", "127.0.0.1:0", "-udp", "127.0.0.1:0",
		"-data-dir", filepath.Join(tmp, "data"), "-reprice", "250ms",
		"-window", "4h", "-slot", "1h", "-checkpoint-interval", "400ms",
		"-history-store", filepath.Join(tmp, "history.db"), "-history-ring", "4",
		"-config", cfgPath,
	}
	cmd, httpAddr, udpAddr := startTierd(t, bin, args...)
	killed := false
	defer func() {
		if !killed && cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	replayUDP(t, udpAddr, streams)

	waitMetric := func(addr, name string, min float64) float64 {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			if v, ok := metricValue(t, addr, name); ok && v >= min {
				return v
			}
			if time.Now().After(deadline) {
				v, _ := metricValue(t, addr, name)
				t.Fatalf("%s never reached %v (at %v)", name, min, v)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	// Publish past the ring depth under generation 1, then SIGHUP.
	waitMetric(httpAddr, "tierd_snapshot_epoch", 6)
	ckpts, _ := metricValue(t, httpAddr, "tierd_checkpoints_total")
	writeConfigFile(t, cfgPath, `{"tiers": 4}`)
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitMetric(httpAddr, "tierd_config_epoch", 2)
	// A couple of epochs under generation 2, and checkpoints that frame
	// it (so the restore proves the epoch survives).
	epochAtReload := waitMetric(httpAddr, "tierd_snapshot_epoch", 1)
	waitMetric(httpAddr, "tierd_snapshot_epoch", epochAtReload+2)
	waitMetric(httpAddr, "tierd_checkpoints_total", ckpts+2)
	preCrash := waitMetric(httpAddr, "tierd_snapshot_epoch", 1)

	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true

	cmd2, httpAddr2, _ := startTierd(t, bin, args...)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd2.Process.Kill()
			cmd2.Wait()
		}
	}()
	waitHealthy(t, httpAddr2, 30*time.Second)

	// The config generation survived the crash via the checkpoint.
	if v, ok := metricValue(t, httpAddr2, "tierd_config_epoch"); !ok || v != 2 {
		t.Errorf("restarted tierd_config_epoch = %v (present %v), want 2", v, ok)
	}
	// The checkpoint-ring backfill re-appended rows the store already
	// had; the (tenant, epoch) key absorbed them.
	if v, ok := metricValue(t, httpAddr2, "tierd_history_dupes_total"); !ok || v == 0 {
		t.Errorf("tierd_history_dupes_total = %v (present %v), want > 0 (idempotent restore replay)", v, ok)
	}

	var hist struct {
		Entries []struct {
			Epoch       int64 `json:"epoch"`
			ConfigEpoch int64 `json:"config_epoch"`
		} `json:"entries"`
	}
	if code := getJSON(t, "http://"+httpAddr2+"/v1/history", &hist); code != http.StatusOK {
		t.Fatalf("/v1/history after restart: %d", code)
	}
	if len(hist.Entries) == 0 || hist.Entries[0].Epoch != 1 {
		t.Fatalf("history lost its oldest epochs after restart: %+v", hist.Entries[:min(3, len(hist.Entries))])
	}
	if int64(len(hist.Entries)) < int64(preCrash) {
		t.Errorf("history has %d entries after restart, want at least the %v pre-crash epochs",
			len(hist.Entries), preCrash)
	}
	var sawGen2 bool
	var prevEpoch, prevCfg int64
	for i, e := range hist.Entries {
		if e.Epoch <= prevEpoch {
			t.Fatalf("history epochs not strictly increasing at %d: %d after %d", i, e.Epoch, prevEpoch)
		}
		if e.ConfigEpoch < prevCfg {
			t.Fatalf("config epochs regress at %d: %d after %d", i, e.ConfigEpoch, prevCfg)
		}
		prevEpoch, prevCfg = e.Epoch, e.ConfigEpoch
		if e.ConfigEpoch >= 2 {
			sawGen2 = true
		}
	}
	if hist.Entries[0].ConfigEpoch != 1 || !sawGen2 {
		t.Errorf("history does not show the generation step (first %d, saw gen2 %v)",
			hist.Entries[0].ConfigEpoch, sawGen2)
	}
	// Range queries hit the store too: the oldest two epochs are long
	// gone from the ring and every retained checkpoint.
	var oldest struct {
		Entries []struct {
			Epoch int64 `json:"epoch"`
		} `json:"entries"`
	}
	if code := getJSON(t, "http://"+httpAddr2+"/v1/history?since=1&until=2", &oldest); code != http.StatusOK {
		t.Fatalf("/v1/history?since=1&until=2: %d", code)
	}
	if len(oldest.Entries) != 2 || oldest.Entries[0].Epoch != 1 || oldest.Entries[1].Epoch != 2 {
		t.Fatalf("ranged query over expired epochs returned %+v, want epochs [1 2]", oldest.Entries)
	}
	fmt.Fprintf(os.Stderr, "history kill9: %d entries survived restart (pre-crash epoch %v)\n",
		len(hist.Entries), preCrash)
}
