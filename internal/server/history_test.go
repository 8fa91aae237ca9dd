package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tieredpricing/internal/histstore"
)

// ringOf builds an oldest-first history series with epochs 1..n.
func ringOf(n int) []histstore.Entry {
	out := make([]histstore.Entry, 0, n)
	base := time.Unix(1700000000, 0).UTC()
	for ep := 1; ep <= n; ep++ {
		out = append(out, histstore.Entry{
			Tenant:      "default",
			At:          base.Add(time.Duration(ep) * time.Minute),
			Epoch:       int64(ep),
			ConfigEpoch: 1,
			Table:       json.RawMessage(fmt.Sprintf(`{"epoch":%d}`, ep)),
		})
	}
	return out
}

func historyServer(t *testing.T, history func(histstore.Query) ([]histstore.Entry, error)) *httptest.Server {
	t.Helper()
	s, err := New(Config{Sole: true, Tenants: []*Tenant{{
		ID:        "default",
		Snapshots: &fakeSource{snap: makeSnapshot(t)},
		History:   history,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func decodeHistory(t *testing.T, body []byte) []historyRow {
	t.Helper()
	var resp historyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding history response: %v (%s)", err, body)
	}
	return resp.Entries
}

// TestHistoryParamValidation pins the 400 contract: negative or
// non-numeric since/until/limit are rejected before any scan runs.
func TestHistoryParamValidation(t *testing.T) {
	scanned := false
	ts := historyServer(t, func(histstore.Query) ([]histstore.Entry, error) {
		scanned = true
		return nil, nil
	})
	for _, query := range []string{
		"?since=-1", "?until=-5", "?limit=-1",
		"?since=abc", "?until=1.5", "?limit=10x",
		"?since=9999999999999999999", // overflows int64
	} {
		scanned = false
		status, body := get(t, ts.URL+"/v1/history"+query)
		if status != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400 (%s)", query, status, body)
		}
		if scanned {
			t.Errorf("%q: invalid query reached the history source", query)
		}
	}
}

// TestHistoryLimitCap: absent, zero, and over-cap limits all clamp to
// the documented server-side cap.
func TestHistoryLimitCap(t *testing.T) {
	var got []histstore.Query
	ts := historyServer(t, func(q histstore.Query) ([]histstore.Entry, error) {
		got = append(got, q)
		return nil, nil
	})
	for _, query := range []string{"", "?limit=0", "?limit=999999"} {
		if status, body := get(t, ts.URL+"/v1/history"+query); status != http.StatusOK {
			t.Fatalf("%q: status %d: %s", query, status, body)
		}
	}
	if len(got) != 3 {
		t.Fatalf("history source saw %d queries, want 3", len(got))
	}
	for i, q := range got {
		if q.Limit != HistoryLimitCap {
			t.Errorf("request %d: limit %d reached the history source, want cap %d", i, q.Limit, HistoryLimitCap)
		}
	}
}

// TestHistoryQueryPassThrough: the handler passes the parsed query to
// the tenant's History callback and serves its answer verbatim; with no
// callback, or an empty answer, the series is [] rather than null.
func TestHistoryQueryPassThrough(t *testing.T) {
	var sawQuery histstore.Query
	ts := historyServer(t, func(q histstore.Query) ([]histstore.Entry, error) {
		sawQuery = q
		return ringOf(5), nil
	})
	status, body := get(t, ts.URL+"/v1/history?since=2&until=900&limit=10")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if sawQuery != (histstore.Query{SinceEpoch: 2, UntilEpoch: 900, Limit: 10}) {
		t.Fatalf("history source saw query %+v", sawQuery)
	}
	entries := decodeHistory(t, body)
	if len(entries) != 5 || entries[4].Epoch != 5 || entries[4].ConfigEpoch != 1 {
		t.Fatalf("got %+v, want the source's 5 entries", entries)
	}
	if strings.Contains(string(body), `"tenant"`) {
		t.Fatalf("history body carries the store's tenant column: %s", body)
	}
	for _, history := range []func(histstore.Query) ([]histstore.Entry, error){
		nil,
		func(histstore.Query) ([]histstore.Entry, error) { return nil, nil },
	} {
		status, body := get(t, historyServer(t, history).URL+"/v1/history")
		if status != http.StatusOK || !strings.Contains(string(body), `"entries":[]`) {
			t.Fatalf("empty series: status %d, body %s", status, body)
		}
	}
}

// TestHistoryStoreError: a failing store scan is a 500, not a silent
// empty series.
func TestHistoryStoreError(t *testing.T) {
	ts := historyServer(t, func(histstore.Query) ([]histstore.Entry, error) {
		return nil, fmt.Errorf("disk on fire")
	})
	status, body := get(t, ts.URL+"/v1/history")
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", status, body)
	}
}
