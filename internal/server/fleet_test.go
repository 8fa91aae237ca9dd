package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeLimiter scripts the quote path's admission decision.
type fakeLimiter struct {
	allow bool
	retry time.Duration
	calls int
}

func (f *fakeLimiter) Allow() (bool, time.Duration) {
	f.calls++
	if f.allow {
		return true, 0
	}
	return false, f.retry
}

// newFleet builds a two-tenant server: "alpha" (the default) and
// "beta", each with its own snapshot source and metric set.
func newFleet(t *testing.T, alphaSrc, betaSrc SnapshotSource, alphaLim RateLimiter) (*Server, *Tenant, *Tenant, *httptest.Server) {
	t.Helper()
	a := &Tenant{ID: "alpha", Snapshots: alphaSrc, Limiter: alphaLim, Weight: 2, RateQPS: 50, RateBurst: 10}
	b := &Tenant{ID: "beta", Snapshots: betaSrc, Weight: 1}
	s, err := New(Config{Tenants: []*Tenant{a, b}, DefaultTenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, a, b, ts
}

func TestFleetRoutesAndTenantIsolation(t *testing.T) {
	snapA := makeSnapshot(t)
	snapB := makeSnapshot(t)
	snapB.Epoch = 7
	_, a, b, ts := newFleet(t, &fakeSource{snap: snapA}, &fakeSource{snap: snapB}, nil)

	quote := func(path string) quoteResponse {
		t.Helper()
		code, body := get(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", path, code, body)
		}
		var q quoteResponse
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatal(err)
		}
		return q
	}
	if q := quote("/v1/t/alpha/quote?src=10.0.0.1&dst=10.1.0.1"); q.Epoch != snapA.Epoch {
		t.Errorf("alpha epoch %d, want %d", q.Epoch, snapA.Epoch)
	}
	if q := quote("/v1/t/beta/quote?src=10.0.0.1&dst=10.1.0.1"); q.Epoch != 7 {
		t.Errorf("beta epoch %d, want 7", q.Epoch)
	}
	// The legacy path aliases the default tenant.
	if q := quote("/v1/quote?src=10.0.0.1&dst=10.1.0.1"); q.Epoch != snapA.Epoch {
		t.Errorf("legacy path epoch %d, want default tenant's %d", q.Epoch, snapA.Epoch)
	}
	if code, body := get(t, ts.URL+"/v1/t/nope/quote?src=10.0.0.1&dst=10.1.0.1"); code != http.StatusNotFound ||
		!strings.Contains(string(body), "unknown tenant") {
		t.Errorf("unknown tenant: status %d body %s", code, body)
	}

	// Counters land on the tenant that served the request, not a shared set.
	if got := a.Metrics.QuoteRequests.Value(); got != 2 {
		t.Errorf("alpha quote requests = %d, want 2 (scoped + legacy alias)", got)
	}
	if got := b.Metrics.QuoteRequests.Value(); got != 1 {
		t.Errorf("beta quote requests = %d, want 1", got)
	}

	// Tenant-scoped tiers and history answer per tenant too.
	code, body := get(t, ts.URL+"/v1/t/beta/tiers")
	if code != http.StatusOK {
		t.Fatalf("beta tiers: status %d", code)
	}
	var tr tiersResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Epoch != 7 {
		t.Errorf("beta tiers epoch %d, want 7", tr.Epoch)
	}
	if code, _ := get(t, ts.URL+"/v1/t/beta/history"); code != http.StatusOK {
		t.Errorf("beta history: status %d", code)
	}
}

func TestFleetRateLimit(t *testing.T) {
	snap := makeSnapshot(t)
	lim := &fakeLimiter{allow: false, retry: 300 * time.Millisecond}
	_, a, b, ts := newFleet(t, &fakeSource{snap: snap}, &fakeSource{snap: snap}, lim)

	resp, err := http.Get(ts.URL + "/v1/t/alpha/quote?src=10.0.0.1&dst=10.1.0.1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("limited quote: status %d, want 429", resp.StatusCode)
	}
	// Sub-second hints round up to the minimum whole second.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if a.Metrics.QuoteRateLimited.Value() != 1 {
		t.Errorf("alpha rate-limited counter = %d, want 1", a.Metrics.QuoteRateLimited.Value())
	}
	// The quota is the tenant's own: beta has no limiter and keeps serving.
	if code, _ := get(t, ts.URL+"/v1/t/beta/quote?src=10.0.0.1&dst=10.1.0.1"); code != http.StatusOK {
		t.Errorf("beta quote while alpha throttled: status %d, want 200", code)
	}
	if b.Metrics.QuoteRateLimited.Value() != 0 {
		t.Errorf("beta rate-limited counter = %d, want 0", b.Metrics.QuoteRateLimited.Value())
	}
}

func TestFleetHealth(t *testing.T) {
	snap := makeSnapshot(t)
	betaSrc := &fakeSource{} // warming: no snapshot yet
	_, _, _, ts := newFleet(t, &fakeSource{snap: snap}, betaSrc, nil)

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("fleet healthz with warming tenant: status %d, want 503", code)
	}
	out := string(body)
	if !strings.Contains(out, "alpha: ok") || !strings.Contains(out, "beta: warming up") {
		t.Errorf("fleet healthz body missing per-tenant lines:\n%s", out)
	}
	// Per-tenant probes disagree exactly per tenant.
	if code, _ := get(t, ts.URL+"/v1/t/alpha/healthz"); code != http.StatusOK {
		t.Errorf("alpha healthz: status %d, want 200", code)
	}
	if code, _ := get(t, ts.URL+"/v1/t/beta/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("beta healthz: status %d, want 503", code)
	}

	betaSrc.snap = makeSnapshot(t)
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK ||
		!strings.Contains(string(body), "beta: ok") {
		t.Errorf("fleet healthz once all fresh: status %d body %s", code, body)
	}
}

func TestFleetMetricsLabeled(t *testing.T) {
	snap := makeSnapshot(t)
	s, a, _, ts := newFleet(t, &fakeSource{snap: snap}, &fakeSource{snap: snap}, nil)
	s.sched = func() SchedStats {
		return SchedStats{
			QueueDepth: 1, Dispatched: 5, Coalesced: 2, Starved: 1,
			Flows: []SchedFlowStats{{Tenant: "alpha", Weight: 2, Dispatched: 3, CostSeconds: 0.01}},
		}
	}
	a.Ingest = func() IngestStats { return IngestStats{Packets: 9, Records: 90} }
	get(t, ts.URL+"/v1/t/alpha/quote?src=10.0.0.1&dst=10.1.0.1")
	get(t, ts.URL+"/v1/t/beta/quote?src=10.0.0.1&dst=10.1.0.1")

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	out := string(body)
	for _, want := range []string{
		`tierd_quote_requests_total{tenant="alpha"} 1`,
		`tierd_quote_requests_total{tenant="beta"} 1`,
		`tierd_quote_rate_limited_total{tenant="alpha"} 0`,
		`tierd_quote_seconds_bucket{tenant="beta",le="+Inf"} 1`,
		`tierd_quote_seconds_count{tenant="alpha"} 1`,
		`tierd_tenant_weight{tenant="alpha"} 2`,
		`tierd_quote_rate_limit_qps{tenant="alpha"} 50`,
		`tierd_snapshot_epoch{tenant="alpha"} 1`,
		`tierd_ingest_routed_packets_total{tenant="alpha"} 9`,
		"tierd_sched_queue_depth 1",
		"tierd_sched_dispatched_total 5",
		`tierd_sched_tenant_dispatched_total{tenant="alpha"} 3`,
		"tierd_health_requests_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet metrics missing %q", want)
		}
	}
	// One HELP/TYPE header per metric name even with many tenants.
	for _, name := range []string{"tierd_quote_requests_total", "tierd_quote_seconds", "tierd_snapshot_epoch"} {
		if got := strings.Count(out, "# HELP "+name+" "); got != 1 {
			t.Errorf("HELP for %s appears %d times, want 1", name, got)
		}
	}
}

func TestFleetConfigValidation(t *testing.T) {
	src := &fakeSource{}
	ok := func() []*Tenant {
		return []*Tenant{{ID: "a", Snapshots: src}, {ID: "b", Snapshots: src}}
	}
	if _, err := New(Config{Tenants: ok()}); err != nil {
		t.Errorf("valid fleet rejected: %v", err)
	}
	// Empty DefaultTenant selects the first tenant.
	s, err := New(Config{Tenants: ok()})
	if err != nil {
		t.Fatal(err)
	}
	if s.def.ID != "a" {
		t.Errorf("default tenant %q, want first tenant \"a\"", s.def.ID)
	}
	cases := []Config{
		{Tenants: []*Tenant{{ID: "a", Snapshots: src}, {ID: "a", Snapshots: src}}},
		{Tenants: []*Tenant{{ID: "", Snapshots: src}}},
		{Tenants: []*Tenant{{ID: "a"}}},
		{Tenants: ok(), DefaultTenant: "nope"},
		{Tenants: ok(), Snapshots: src},
		{Tenants: ok(), Sole: true},
		{Tenants: []*Tenant{{ID: "a", Snapshots: src, MaxSnapshotAge: -time.Second}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid fleet config accepted", i)
		}
	}
}
