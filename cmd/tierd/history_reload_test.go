package main

// History + hot-reload acceptance tests.
//
// The store-level tests pin the history store's contract: a memory
// store and a file store with the same row bound answer the same
// (parity under random range queries), and the (tenant, epoch) append
// key makes the back-fill of an old checkpoint's history immune to
// double-append. The daemon-level tests drive the zero-downtime reload
// path under concurrent quote load (run with -race in CI), a restart
// that must not reuse an epoch, the upgrade from a checkpoint that
// carried history, and the out-of-process kill -9 + SIGHUP cycle
// against a real binary.

import (
	"bytes"
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

	"tieredpricing/internal/econ"
	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/histstore"
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

func openTestStore(t *testing.T, path string, opts histstore.Options) *histstore.Store {
	t.Helper()
	st, err := histstore.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// refFilterHistory is the reference since/until/limit semantics:
// inclusive epoch bounds (0 = unbounded), newest-limit kept,
// oldest-first order.
func refFilterHistory(all []histstore.Entry, since, until int64, limit int) []histstore.Entry {
	var out []histstore.Entry
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

func histEntriesEqual(t *testing.T, label string, got, want []histstore.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Tenant != w.Tenant || g.Epoch != w.Epoch || g.ConfigEpoch != w.ConfigEpoch || !g.At.Equal(w.At) ||
			string(g.Table) != string(w.Table) {
			t.Fatalf("%s: entry %d diverges:\ngot  %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestHistoryStoreModeParity: a memory store and a file store with the
// same MaxRows bound are fed one seeded series over two tenants, with
// gaps in the epochs. Both must keep exactly each tenant's newest bound
// rows, and both must answer 300 seeded random range queries as a
// reference filter over those rows does. The file, trimmed on most
// appends, must stay within twice its live rows plus one frame, and a
// reopen must keep the same rows.
func TestHistoryStoreModeParity(t *testing.T) {
	const total, bound = 900, 48
	rnd := rand.New(rand.NewSource(recoverSeed(t)))
	path := filepath.Join(t.TempDir(), "history.db")
	opts := histstore.Options{FlushInterval: -1, FlushBytes: 4 << 10, MaxRows: bound}
	file := openTestStore(t, path, opts)
	mem := histstore.NewMemory(opts)
	defer mem.Close()
	tenants := []string{"net-a", "net-b"}
	base := time.Unix(1700000000, 0).UTC()

	all := map[string][]histstore.Entry{}
	last := map[string]int64{}
	for i := 0; i < total; i++ {
		tn := tenants[rnd.Intn(len(tenants))]
		last[tn] += 1 + rnd.Int63n(3)
		snap := fakeTableSnap(last[tn], rnd.Float64(), base.Add(time.Duration(i)*time.Second))
		table, err := snap.Table.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		e := histstore.Entry{Tenant: tn, Epoch: last[tn], ConfigEpoch: 1 + int64(i/300), At: snap.FittedAt, Table: table}
		all[tn] = append(all[tn], e)
		for _, st := range []*histstore.Store{mem, file} {
			if err := st.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		// The bound: twice the live rows (each a u32 length and its
		// JSON, after the file's 8-byte magic) plus one frame, which a
		// group commit fills to FlushBytes and the row that crossed it.
		st := file.Stats()
		live := 8 + int64(st.Bytes) + 4*int64(st.Entries)
		if fi, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if limit := 2*live + int64(opts.FlushBytes) + 1<<10; fi.Size() > limit {
			t.Fatalf("append %d: file is %d bytes, over its limit %d (%+v)", i, fi.Size(), limit, st)
		}
	}
	if st := file.Stats(); st.Compactions == 0 || st.Pruned != uint64(total-len(tenants)*bound) {
		t.Fatalf("file store after %d appends: %+v, want compactions and %d pruned", total, st, total-len(tenants)*bound)
	}

	scan := func(st *histstore.Store, tn string, q histstore.Query) []histstore.Entry {
		t.Helper()
		got, err := st.Scan(tn, q)
		if err != nil {
			t.Fatalf("scan %s %+v: %v", tn, q, err)
		}
		return got
	}
	for _, tn := range tenants {
		kept := all[tn][len(all[tn])-bound:]
		histEntriesEqual(t, "memory "+tn, scan(mem, tn, histstore.Query{}), kept)
		histEntriesEqual(t, "file "+tn, scan(file, tn, histstore.Query{}), kept)
	}
	for i := 0; i < 300; i++ {
		tn := tenants[rnd.Intn(len(tenants))]
		top := last[tn] + 20
		q := histstore.Query{SinceEpoch: rnd.Int63n(top), UntilEpoch: rnd.Int63n(top), Limit: rnd.Intn(bound + 20)}
		want := refFilterHistory(all[tn][len(all[tn])-bound:], q.SinceEpoch, q.UntilEpoch, q.Limit)
		label := fmt.Sprintf("%s since=%d until=%d limit=%d", tn, q.SinceEpoch, q.UntilEpoch, q.Limit)
		histEntriesEqual(t, "memory "+label, scan(mem, tn, q), want)
		histEntriesEqual(t, "file "+label, scan(file, tn, q), want)
	}

	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openTestStore(t, path, opts)
	for _, tn := range tenants {
		histEntriesEqual(t, "reopened "+tn, scan(reopened, tn, histstore.Query{}), all[tn][len(all[tn])-bound:])
	}
}

// oldCheckpointHistory encodes rows the way checkpoints written before
// the history store was tierd's only history carried them: no tenant,
// and no config epoch before hot reload existed.
func oldCheckpointHistory(t *testing.T, rows []histstore.Entry) json.RawMessage {
	t.Helper()
	type oldRow struct {
		At          time.Time       `json:"at"`
		Epoch       int64           `json:"epoch"`
		Table       json.RawMessage `json:"table"`
		ConfigEpoch int64           `json:"config_epoch,omitempty"`
	}
	old := make([]oldRow, len(rows))
	for i, e := range rows {
		old[i] = oldRow{At: e.At, Epoch: e.Epoch, Table: e.Table, ConfigEpoch: e.ConfigEpoch}
	}
	return mustMarshal(t, old)
}

// TestHistoryRestoreDoubleAppend: a checkpoint in the old format
// carries history rows the store partly holds already. The back-fill
// must keep the first-written row of each epoch — the series stays one
// row per epoch with the original bytes — add the rows the store
// lacks with config epoch 0 read as 1, and change nothing when it runs
// again (a crash before the next checkpoint) or after a store reopen.
func TestHistoryRestoreDoubleAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.db")
	store := openTestStore(t, path, histstore.Options{FlushInterval: -1})
	base := time.Unix(1700000000, 0).UTC()
	row := func(ep int64, price float64, cfgEpoch int64) histstore.Entry {
		snap := fakeTableSnap(ep, price, base.Add(time.Duration(ep)*time.Second))
		table, err := snap.Table.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return histstore.Entry{Tenant: "default", Epoch: ep, ConfigEpoch: cfgEpoch, At: snap.FittedAt, Table: table}
	}

	// The store holds epochs 6..10; the old checkpoint's history holds
	// 1..8 with (deliberately different) tables.
	var want, old []histstore.Entry
	for ep := int64(1); ep <= 10; ep++ {
		if ep <= 8 {
			old = append(old, row(ep, float64(ep)+100, 0))
		}
		if ep >= 6 {
			if err := store.Append(row(ep, float64(ep)+0.25, 1)); err != nil {
				t.Fatal(err)
			}
			want = append(want, row(ep, float64(ep)+0.25, 1))
		} else {
			want = append(want, row(ep, float64(ep)+100, 1))
		}
	}
	raw := oldCheckpointHistory(t, old)
	backfillHistory(store, "default", raw)

	verify := func(st *histstore.Store, label string) {
		t.Helper()
		got, err := st.Scan("default", histstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		histEntriesEqual(t, label, got, want)
	}
	verify(store, "live store")
	if dupes := store.Stats().Dupes; dupes != 3 {
		t.Errorf("back-fill over epochs 6..8 counted %d dupes, want 3", dupes)
	}
	backfillHistory(store, "default", raw)
	verify(store, "second back-fill")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openTestStore(t, path, histstore.Options{FlushInterval: -1})
	backfillHistory(reopened, "default", raw)
	verify(reopened, "reopened store")
}

// reloadTestConfig is the in-process daemon config for the reload
// tests: manual re-prices (huge interval), an unbounded -history-store
// beside a tiny -history-ring (which it must ignore: /v1/history depth
// proves it), and a -config file under tmp.
func reloadTestConfig(traceDir, tmp string) config {
	return config{
		listen: "127.0.0.1:0", trace: traceDir,
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

// TestConfigOverridesDefaults: a -config file holding {"model":
// "logit", "tiers": 4} prices under the logit model with four tiers and
// the defaults for every other key. SIGHUP then swaps in an empty file,
// which prices under the defaults alone.
func TestConfigOverridesDefaults(t *testing.T) {
	ds, err := traces.EUISP(13)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	cfg := recoverConfig(writeTraceDir(t, ds, len(streams)), "", faultinject.NewClock(time.Unix(1700000000, 0)).Now)
	cfg.configFile = filepath.Join(t.TempDir(), "pricing.json")
	writeConfigFile(t, cfg.configFile, `{"model": "logit", "tiers": 4}`)
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.abort()
	for _, g := range traceDatagrams(t, streams) {
		d.sink.Ingest(g.h, g.recs)
	}
	m := d.members[0]
	reprice := func() []byte {
		t.Helper()
		snap, err := m.repricer.Reprice(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		table, err := snap.Table.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return table
	}
	if got, want := reprice(), shadowTableWith(t, ds, m.window, cfg.now, econ.Logit{Alpha: 1.1, S0: 0.2}, 4); !bytes.Equal(got, want) {
		t.Fatalf("-config {model: logit, tiers: 4}: table\n%s\nwant\n%s", got, want)
	}

	writeConfigFile(t, cfg.configFile, `{}`)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); d.reload.stats().Reloads != 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never landed (stats %+v)", d.reload.stats())
		}
	}
	if got, want := reprice(), shadowTable(t, ds, m.window, cfg.now); !bytes.Equal(got, want) {
		t.Fatalf("after SIGHUP to an empty -config: table\n%s\nwant the defaults'\n%s", got, want)
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
	defer d.stopLoops()
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

	// Failed reloads must not move the generation: invalid values (a
	// negative blended rate included), unknown key, and unparseable JSON.
	epochBefore := d.reload.epoch()
	for _, bad := range []string{`{"tiers": 0}`, `{"blended": -3}`, `{"bogus": 1}`, `{`} {
		writeConfigFile(t, cfg.configFile, bad)
		if err := d.reloadConfig(); err == nil {
			t.Fatalf("reload of %q succeeded, want error", bad)
		}
	}
	if got := d.reload.epoch(); got != epochBefore {
		t.Fatalf("failed reloads moved the config epoch %d -> %d", epochBefore, got)
	}

	// The real signal path: SIGHUP on the watcher must reload too.
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

	// History comes from the unbounded store (deeper than the 4-row
	// -history-ring) and its config epochs are monotone, ending at the
	// last re-priced generation.
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
		t.Fatalf("history depth %d does not exceed -history-ring (%d), which -history-store must not apply", len(hist.Entries), cfg.historyRing)
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
	// SIGHUP; four failed reloads counted.
	checks := map[string]float64{
		"tierd_config_epoch":               float64(reloads + 2),
		"tierd_config_reloads_total":       float64(reloads + 1),
		"tierd_config_reload_errors_total": 4,
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

	// Let both tenants publish past -history-ring, then reload.
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

	// The store holds each tenant's rows under its own ID, and nothing
	// under the synthesised member's.
	if rows, err := h.d.histStore.Scan("default", histstore.Query{}); err != nil || len(rows) != 0 {
		t.Fatalf("store has %d rows under \"default\" (%v), want none", len(rows), err)
	}
	for _, id := range []string{"net-a", "net-b"} {
		rows, err := h.d.histStore.Scan(id, histstore.Query{})
		if err != nil || len(rows) == 0 {
			t.Fatalf("tenant %s: %d store rows (%v)", id, len(rows), err)
		}
		for i, row := range rows {
			if row.Tenant != id || row.Epoch != int64(i)+1 {
				t.Fatalf("tenant %s store row %d is %s/%d — cross-tenant bleed or gap", id, i, row.Tenant, row.Epoch)
			}
		}

		var hist struct {
			Entries []struct {
				Epoch int64 `json:"epoch"`
			} `json:"entries"`
		}
		if code := getJSON(t, base+"/v1/t/"+id+"/history", &hist); code != http.StatusOK {
			t.Fatalf("tenant %s history: %d", id, code)
		}
		if len(hist.Entries) <= cfg.historyRing {
			t.Fatalf("tenant %s history depth %d does not exceed -history-ring (%d)", id, len(hist.Entries), cfg.historyRing)
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
// including epochs past -history-ring and checkpoint retention — with
// the config-epoch step preserved, and the restart must append no row
// twice: it resumes past every epoch the store holds.
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
	// Publish past -history-ring under generation 1, then SIGHUP.
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
	// Nothing is re-appended: new checkpoints carry no history to
	// back-fill, and the restart publishes no epoch the store holds.
	if v, ok := metricValue(t, httpAddr2, "tierd_history_dupes_total"); !ok || v != 0 {
		t.Errorf("tierd_history_dupes_total = %v (present %v), want 0 (no reused epoch, no back-fill)", v, ok)
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
	// Range queries reach the oldest rows too: epochs 1 and 2 are long
	// past every retained checkpoint.
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

// TestHistoryEpochContinuity: a daemon with -data-dir and a history
// store publishes past its newest checkpoint and crashes; the store
// keeps the rows the checkpoint never saw. The recovered daemon must
// not publish those epoch numbers again: every epoch it serves must be
// the one /v1/history recorded for it, table for table.
func TestHistoryEpochContinuity(t *testing.T) {
	seed := recoverSeed(t)
	ds, err := traces.EUISP(seed)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	grams := traceDatagrams(t, streams)
	tmp := t.TempDir()
	clock := faultinject.NewClock(time.Unix(1700000000, 0))
	cfg := recoverConfig(writeTraceDir(t, ds, len(streams)), filepath.Join(tmp, "data"), clock.Now)
	cfg.historyStore = filepath.Join(tmp, "history.db")

	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := d.members[0]
	third := len(grams) / 3
	for i, g := range grams {
		d.sink.Ingest(g.h, g.recs)
		switch i + 1 {
		case third:
			m.repriceOnce(context.Background())
			if err := m.durable.checkpoint(); err != nil {
				t.Fatal(err)
			}
		case 2 * third, len(grams):
			// Published after the newest checkpoint: only the store knows.
			m.repriceOnce(context.Background())
		}
	}
	if got := m.repricer.Current().Epoch; got != 3 {
		t.Fatalf("first life published up to epoch %d, want 3", got)
	}
	// Crash: nothing more is checkpointed. The WAL and the store keep
	// what they were sent; the store is closed before the next daemon
	// opens the same file.
	if err := m.durable.log.Sync(); err != nil {
		t.Fatal(err)
	}
	d.close()
	d.stopLoops()
	m.durable.log.Close()
	if err := d.histStore.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.abort()
	base := "http://" + d2.httpAddr()
	for i := 0; i < 3; i++ {
		if i > 0 {
			d2.members[0].repriceOnce(context.Background())
		}
		var tiers struct {
			Epoch int64           `json:"epoch"`
			Table json.RawMessage `json:"table"`
		}
		if code := getJSON(t, base+"/v1/tiers", &tiers); code != http.StatusOK {
			t.Fatalf("/v1/tiers: %d", code)
		}
		if tiers.Epoch <= 3 {
			t.Errorf("recovered daemon serves epoch %d, which the first life already published", tiers.Epoch)
		}
		var hist struct {
			Entries []struct {
				Epoch int64           `json:"epoch"`
				Table json.RawMessage `json:"table"`
			} `json:"entries"`
		}
		url := fmt.Sprintf("%s/v1/history?since=%d&until=%d", base, tiers.Epoch, tiers.Epoch)
		if code := getJSON(t, url, &hist); code != http.StatusOK || len(hist.Entries) != 1 {
			t.Fatalf("%s: status %d, %d entries", url, code, len(hist.Entries))
		}
		if !bytes.Equal(hist.Entries[0].Table, tiers.Table) {
			t.Fatalf("epoch %d: /v1/history holds\n%s\nbut /v1/tiers served\n%s", tiers.Epoch, hist.Entries[0].Table, tiers.Table)
		}
	}
}
