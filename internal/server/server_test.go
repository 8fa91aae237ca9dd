package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/geoip"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

type fakeSource struct{ snap *stream.Snapshot }

func (f *fakeSource) Current() *stream.Snapshot { return f.snap }

// makeSnapshot builds a real two-tier snapshot over a tiny synthetic
// market: one short flow and one long flow from the same source PoP.
func makeSnapshot(t *testing.T) *stream.Snapshot {
	t.Helper()
	db := &geoip.DB{}
	for _, rec := range []geoip.Record{
		{Prefix: netip.MustParsePrefix("10.0.0.0/16"), City: "A", Country: "X", Lat: 0, Lon: 0},
		{Prefix: netip.MustParsePrefix("10.1.0.0/24"), City: "B", Country: "X", Lat: 1, Lon: 1},
		{Prefix: netip.MustParsePrefix("10.2.0.0/24"), City: "C", Country: "Y", Lat: 50, Lon: 50},
	} {
		if err := db.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	w, err := stream.NewWindow(traces.AggregateKey, time.Hour, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []netflow.Record{
		{SrcAddr: netip.MustParseAddr("10.0.0.1"), DstAddr: netip.MustParseAddr("10.1.0.1"),
			SrcPort: 1, DstPort: 443, Proto: 6, Octets: 4_000_000_000},
		{SrcAddr: netip.MustParseAddr("10.0.0.1"), DstAddr: netip.MustParseAddr("10.2.0.1"),
			SrcPort: 2, DstPort: 443, Proto: 6, Octets: 3_000_000_000},
	}
	w.Ingest(netflow.Header{}, recs)
	rp, err := stream.NewRepricer(stream.Config{
		Window:      w,
		Resolver:    &demandfit.Resolver{Geo: db},
		Demand:      econ.CED{Alpha: 1.1},
		Cost:        cost.Linear{Theta: 0.2},
		P0:          10,
		Strategy:    bundling.ProfitWeighted{},
		Tiers:       2,
		DurationSec: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func newTestServer(t *testing.T, src SnapshotSource, ingest func() IngestStats) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Snapshots: src, Metrics: NewMetrics(), Ingest: ingest})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestServerWarmingUp(t *testing.T) {
	_, ts := newTestServer(t, &fakeSource{}, nil)
	for _, path := range []string{"/v1/quote?src=10.0.0.1&dst=10.1.0.1", "/v1/tiers", "/healthz"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusServiceUnavailable {
			t.Errorf("%s before first snapshot: status %d, want 503", path, code)
		}
	}
	// /metrics is alive even before the first snapshot.
	if code, body := get(t, ts.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(string(body), "tierd_reprices_total") {
		t.Errorf("metrics during warmup: status %d body %q", code, body)
	}
}

func TestQuoteEndpoint(t *testing.T) {
	snap := makeSnapshot(t)
	srv, ts := newTestServer(t, &fakeSource{snap: snap}, nil)

	code, body := get(t, ts.URL+"/v1/quote?src=10.0.0.1&dst=10.1.0.1")
	if code != http.StatusOK {
		t.Fatalf("status %d body %s", code, body)
	}
	var q quoteResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	want, ok := snap.Quote(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"))
	if !ok {
		t.Fatal("fixture flow has no quote")
	}
	if q.Tier != want.Tier || q.Price != want.Price || q.Source != "window" || q.Epoch != snap.Epoch {
		t.Errorf("quote %+v, want tier=%d price=%v source=window epoch=%d", q, want.Tier, want.Price, snap.Epoch)
	}

	// flow=src>dst is equivalent.
	code, body2 := get(t, ts.URL+"/v1/quote?flow=10.0.0.1%3E10.1.0.1")
	if code != http.StatusOK || !bytes.Equal(body, body2) {
		t.Errorf("flow= form: status %d, body %s (want %s)", code, body2, body)
	}

	// A source no bucket holds, towards a /24 the window routes: the
	// snapshot's route fallback answers.
	code, body = get(t, ts.URL+"/v1/quote?src=203.0.113.1&dst=10.1.0.9")
	if code != http.StatusOK {
		t.Fatalf("fallback quote: status %d body %s", code, body)
	}
	var fq quoteResponse
	if err := json.Unmarshal(body, &fq); err != nil {
		t.Fatal(err)
	}
	if fq.Tier != want.Tier || fq.Price != want.Price || fq.Source != "rib" || fq.Epoch != snap.Epoch {
		t.Errorf("fallback quote %+v, want tier=%d price=%v source=rib epoch=%d", fq, want.Tier, want.Price, snap.Epoch)
	}

	if code, _ := get(t, ts.URL+"/v1/quote?src=10.0.0.1"); code != http.StatusBadRequest {
		t.Errorf("missing dst: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/quote?flow=oops"); code != http.StatusBadRequest {
		t.Errorf("malformed flow: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/quote?src=not-an-ip&dst=10.1.0.1"); code != http.StatusBadRequest {
		t.Errorf("bad src: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/quote?src=203.0.113.1&dst=198.51.100.1"); code != http.StatusNotFound {
		t.Errorf("unmatched flow: status %d, want 404", code)
	}
	if srv.proc.QuoteMisses.Value() != 1 {
		t.Errorf("quote misses = %d, want 1", srv.proc.QuoteMisses.Value())
	}

	resp, err := http.Post(ts.URL+"/v1/quote", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", resp.StatusCode)
	}
}

func TestTiersEndpointCarriesCanonicalTable(t *testing.T) {
	snap := makeSnapshot(t)
	_, ts := newTestServer(t, &fakeSource{snap: snap}, nil)
	code, body := get(t, ts.URL+"/v1/tiers")
	if code != http.StatusOK {
		t.Fatalf("status %d body %s", code, body)
	}
	var resp tiersResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := snap.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(resp.Table), want) {
		t.Errorf("table bytes differ:\ngot  %s\nwant %s", resp.Table, want)
	}
	if resp.Epoch != snap.Epoch {
		t.Errorf("epoch %d, want %d", resp.Epoch, snap.Epoch)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	snap := makeSnapshot(t)
	srv, ts := newTestServer(t, &fakeSource{snap: snap}, func() IngestStats {
		return IngestStats{Packets: 5, BadPackets: 1, Records: 60, Duplicates: 30, Dropped: 2}
	})
	srv.proc.ObserveReprice(0.02, false)

	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: status %d body %q", code, body)
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	out := string(body)
	for _, want := range []string{
		"tierd_ingest_packets_total 5",
		"tierd_ingest_bad_packets_total 1",
		"tierd_ingest_records_total 60",
		"tierd_ingest_duplicates_total 30",
		"tierd_ingest_dropped_total 2",
		"tierd_snapshot_epoch 1",
		"tierd_reprice_seconds_count 1",
		"tierd_health_requests_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("expected error for nil snapshot source")
	}
	if _, err := New(Config{Snapshots: &fakeSource{}}); err != nil {
		t.Errorf("nil metrics should default, got %v", err)
	}
	if _, err := New(Config{Sole: true, Tenants: []*Tenant{{ID: "default", Snapshots: &fakeSource{}, MaxSnapshotAge: -time.Second}}}); err == nil {
		t.Error("negative staleness threshold accepted")
	}
}

// TestStalenessPolicy pins the degraded-mode contract: /healthz flips
// to 503 exactly when the snapshot's age exceeds MaxSnapshotAge, while
// /v1/quote keeps answering 200 from the stale snapshot with the
// staleness headers set.
func TestStalenessPolicy(t *testing.T) {
	snap := makeSnapshot(t)
	var mu sync.Mutex
	now := snap.FittedAt
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	setNow := func(t time.Time) { mu.Lock(); now = t; mu.Unlock() }
	s, err := New(Config{
		Sole:    true,
		Tenants: []*Tenant{{ID: "default", Snapshots: &fakeSource{snap: snap}, MaxSnapshotAge: 30 * time.Second}},
		Now:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	quoteURL := ts.URL + "/v1/quote?src=10.0.0.1&dst=10.1.0.1"
	// At the threshold (not beyond): still healthy, no staleness header.
	setNow(snap.FittedAt.Add(30 * time.Second))
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz at threshold: status %d body %q, want 200", code, body)
	}
	resp, err := http.Get(quoteURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Tierd-Stale") != "" {
		t.Errorf("fresh quote: status %d stale header %q", resp.StatusCode, resp.Header.Get("X-Tierd-Stale"))
	}

	// One tick past the threshold: degraded, quoting stays up.
	setNow(snap.FittedAt.Add(30*time.Second + time.Millisecond))
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
		t.Errorf("healthz past threshold: status %d body %q, want 503 degraded", code, body)
	}
	resp, err = http.Get(quoteURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stale quote: status %d, want 200 (quoting never goes down)", resp.StatusCode)
	}
	if resp.Header.Get("X-Tierd-Stale") != "true" || resp.Header.Get("X-Tierd-Snapshot-Age") == "" {
		t.Errorf("stale quote headers: stale=%q age=%q", resp.Header.Get("X-Tierd-Stale"),
			resp.Header.Get("X-Tierd-Snapshot-Age"))
	}

	// /metrics reports the age and the stale flag.
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(string(body), "tierd_snapshot_stale 1") ||
		!strings.Contains(string(body), "tierd_snapshot_age_seconds") {
		t.Errorf("metrics missing staleness gauges:\n%s", body)
	}
}
