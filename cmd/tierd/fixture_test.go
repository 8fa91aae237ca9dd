package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/traces"
)

// parentShards4 is a data dir written by the tierd of commit d78dee1
// at -ingest-shards 4, when the window was still split into shards. That
// tierd took every twelfth datagram of traces.EUISP(73)'s seed-74 export
// (traceDatagrams order), on a faultinject clock started at
// 1_700_000_000: the first two thirds, a re-price and a checkpoint, then
// the clock one hour on and the rest left in the WAL tail, where it
// logged each datagram as one frame per shard the datagram touched.
// expected.json holds what that tierd recovered from the dir: the
// exported window and the /v1/tiers table.
const parentShards4 = "testdata/parent-shards4"

// parentShards4Clock is the instant the fixture's writer stopped at.
var parentShards4Clock = time.Unix(1_700_000_000, 0).Add(time.Hour)

// restoreParentShards4 copies the fixture into a fresh data dir and
// rebuilds the trace dir it was priced against.
func restoreParentShards4(t *testing.T) (traceDir, dataDir string, grams []datagram) {
	t.Helper()
	ds, err := traces.EUISP(73)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	all := traceDatagrams(t, streams)
	for i := 0; i < len(all); i += 12 {
		grams = append(grams, all[i])
	}
	dataDir = t.TempDir()
	for _, sub := range []string{"wal", "checkpoint"} {
		files, err := os.ReadDir(filepath.Join(parentShards4, sub))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dataDir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(parentShards4, sub, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dataDir, sub, f.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return writeTraceDir(t, ds, len(streams)), dataDir, grams
}

// TestRecoveryParentShards4 restores the sharded parent's data dir into
// the one window: the exported window and the /v1/tiers table must be
// the bytes that tierd recovered, and the restored dedup state must
// still know the datagrams it holds.
func TestRecoveryParentShards4(t *testing.T) {
	var want struct {
		Export json.RawMessage `json:"export"`
		Table  json.RawMessage `json:"table"`
	}
	raw, err := os.ReadFile(filepath.Join(parentShards4, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	traceDir, dataDir, grams := restoreParentShards4(t)
	clock := faultinject.NewClock(parentShards4Clock)
	d, err := startDaemon(recoverConfig(traceDir, dataDir, clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d.members[0].durable.log.Close()
		d.close()
	}()

	w := d.members[0].window
	if got := exportJSON(t, w); !bytes.Equal(got, want.Export) {
		t.Fatal("recovered window diverges from the sharded parent's")
	}
	var tiers struct {
		Table json.RawMessage `json:"table"`
	}
	if code := getJSON(t, "http://"+d.httpAddr()+"/v1/tiers", &tiers); code != http.StatusOK {
		t.Fatalf("/v1/tiers: status %d", code)
	}
	if !bytes.Equal(tiers.Table, want.Table) {
		t.Fatalf("recovered tier table diverges from the sharded parent's:\ngot  %s\nwant %s", tiers.Table, want.Table)
	}

	// A datagram the checkpoint holds, sent again, is all duplicates and
	// leaves the demand as it was.
	before := mustMarshal(t, w.Aggregates())
	_, dup0, _, _ := w.Stats()
	d.sink.Ingest(grams[0].h, grams[0].recs)
	if _, dup1, _, _ := w.Stats(); dup1-dup0 != len(grams[0].recs) {
		t.Errorf("re-sent datagram of %d records counted %d duplicates", len(grams[0].recs), dup1-dup0)
	}
	if !bytes.Equal(mustMarshal(t, w.Aggregates()), before) {
		t.Error("re-sent datagram changed the aggregates")
	}
}

// TestWarmRepriceAfterLongDowntime restarts on a data dir after more
// than the window span: every restored slot has aged out, though the
// lifetime counters say records arrived. There is nothing to warm, which
// is not a failure — no error, no snapshot, no failed re-price.
func TestWarmRepriceAfterLongDowntime(t *testing.T) {
	traceDir, dataDir, _ := restoreParentShards4(t)
	cfg := recoverConfig(traceDir, dataDir, nil)
	cfg.now = faultinject.NewClock(parentShards4Clock.Add(cfg.window)).Now
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d.members[0].durable.log.Close()
		d.close()
	}()
	m := d.members[0]
	if records, _, _, live := m.window.Stats(); records == 0 || live != 0 {
		t.Fatalf("restored window holds %d records in %d live slots; want records, all aged out", records, live)
	}
	if err := m.durable.warmReprice(cfg.drainGrace); err != nil {
		t.Fatalf("warm re-price of an aged-out window: %v", err)
	}
	if m.repricer.Current() != nil {
		t.Error("a snapshot was published from an aged-out window")
	}
	if n := m.repricer.ConsecutiveFailures(); n != 0 {
		t.Errorf("%d failed re-prices counted", n)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
