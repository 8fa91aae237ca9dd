package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tieredpricing/internal/hist"
	"tieredpricing/internal/stream"
)

// TestHistogramBuckets pins a histogram's exposition: cumulative
// buckets, +Inf, sum and count.
func TestHistogramBuckets(t *testing.T) {
	h, err := hist.New(0.01, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	var b strings.Builder
	writeSamples(&b, "x", "", histSamples(h))
	out := b.String()
	for _, want := range []string{
		`x_bucket{le="0.01"} 1`,
		`x_bucket{le="0.1"} 2`,
		`x_bucket{le="1"} 3`,
		`x_bucket{le="+Inf"} 4`,
		`x_sum 5.555`,
		`x_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// scrapeSole renders /metrics for a sole tenant reporting into m.
func scrapeSole(t *testing.T, m *Metrics) string {
	t.Helper()
	s, err := New(Config{Snapshots: &fakeSource{}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.QuoteRequests.Add(3)
	m.QuoteMisses.Inc()
	m.ObserveReprice(0.02, false)
	m.ObserveReprice(0.5, true)
	for _, st := range []stream.StageTimes{
		{stream.StageBundle: 30 * time.Millisecond, stream.StageBuild: 5 * time.Millisecond},
		{stream.StageBundle: 20 * time.Millisecond},
	} {
		m.ObserveSnapshot(&stream.Snapshot{RepriceTrace: stream.RepriceTrace{Stages: st}})
	}
	out := scrapeSole(t, m)
	for _, want := range []string{
		"# TYPE tierd_reprice_stage_seconds summary",
		`tierd_reprice_stage_seconds_sum{stage="bundle"} 0.05`,
		`tierd_reprice_stage_seconds_count{stage="bundle"} 2`,
		`tierd_reprice_stage_seconds_sum{stage="build"} 0.005`,
		`tierd_reprice_stage_seconds_sum{stage="aggregate"} 0`,
		"tierd_quote_requests_total 3",
		"tierd_quote_misses_total 1",
		"tierd_reprices_total 2",
		"tierd_reprice_failures_total 1",
		"tierd_reprice_consecutive_failures 0",
		"tierd_reprice_seconds_count 2",
		"# TYPE tierd_reprice_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRepriceFlowsGauge(t *testing.T) {
	m := NewMetrics()
	m.RepriceFlows.Set(742)
	if got := m.RepriceFlows.Value(); got != 742 {
		t.Fatalf("gauge value = %d, want 742", got)
	}
	m.RepriceFlows.Set(3) // gauges go down too
	out := scrapeSole(t, m)
	for _, want := range []string{
		"# TYPE tierd_reprice_flows gauge",
		"tierd_reprice_flows 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestDebugRepriceRing: ObserveSnapshot feeds the rows-by-state counters
// and the debug ring, which keeps the last 32 published re-prices oldest
// first and serves them on the bare and the tenant path.
func TestDebugRepriceRing(t *testing.T) {
	snap := makeSnapshot(t)
	if snap.Rows != 2 || snap.New != 2 || snap.Powers == 0 || snap.Stages[stream.StageFit] <= 0 {
		t.Fatalf("first re-price's trace = %+v", snap.RepriceTrace)
	}
	m := NewMetrics()
	for epoch := int64(1); epoch <= 40; epoch++ {
		s := *snap
		s.Epoch = epoch
		s.RepriceTrace = stream.RepriceTrace{Stages: stream.StageTimes{stream.StageBuild: 2 * time.Millisecond},
			Rows: 10, New: 1, Changed: 2, Retired: 3, FitReused: 7}
		m.ObserveSnapshot(&s)
	}
	s, err := New(Config{Tenants: []*Tenant{{ID: "net-a", Snapshots: &fakeSource{}, Metrics: m}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/debug/reprice", "/v1/t/net-a/debug/reprice"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var body struct {
			Reprices []struct {
				Epoch     int64              `json:"epoch"`
				StagesMs  map[string]float64 `json:"stages_ms"`
				Rows      int                `json:"rows"`
				FitReused int                `json:"fit_reused"`
			} `json:"reprices"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != 200 {
			t.Fatalf("%s: status %d, %v: %s", path, rec.Code, err, rec.Body)
		}
		if n := len(body.Reprices); n != 32 || body.Reprices[0].Epoch != 9 || body.Reprices[31].Epoch != 40 {
			t.Fatalf("%s: %d records, epochs %d..%d; want the last 32, oldest first", path, n, body.Reprices[0].Epoch, body.Reprices[n-1].Epoch)
		}
		if r := body.Reprices[31]; r.Rows != 10 || r.FitReused != 7 || r.StagesMs["build"] != 2 || len(r.StagesMs) != int(stream.NumStages) {
			t.Fatalf("%s: last record = %+v", path, r)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		"# TYPE tierd_reprice_rows_total counter",
		`tierd_reprice_rows_total{tenant="net-a",state="new"} 40`,
		`tierd_reprice_rows_total{tenant="net-a",state="changed"} 80`,
		`tierd_reprice_rows_total{tenant="net-a",state="retired"} 120`,
		`tierd_reprice_rows_total{tenant="net-a",state="unchanged"} 280`,
		`tierd_reprice_stage_seconds_count{tenant="net-a",stage="build"} 40`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, rec.Body)
		}
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/debug/reprice", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/debug/reprice = %d, want 405", rec.Code)
	}
}
