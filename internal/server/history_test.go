package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// ringOf builds an oldest-first history series with epochs 1..n.
func ringOf(n int) []HistoryEntry {
	out := make([]HistoryEntry, 0, n)
	base := time.Unix(1700000000, 0).UTC()
	for ep := 1; ep <= n; ep++ {
		out = append(out, HistoryEntry{
			At:          base.Add(time.Duration(ep) * time.Minute),
			Epoch:       int64(ep),
			ConfigEpoch: 1,
			Table:       json.RawMessage(fmt.Sprintf(`{"epoch":%d}`, ep)),
		})
	}
	return out
}

func historyServer(t *testing.T, history func() []HistoryEntry,
	scan func(HistoryQuery) ([]HistoryEntry, error)) *httptest.Server {
	t.Helper()
	s, err := New(Config{Sole: true, Tenants: []*Tenant{{
		ID:          "default",
		Snapshots:   &fakeSource{snap: makeSnapshot(t)},
		History:     history,
		HistoryScan: scan,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func decodeHistory(t *testing.T, body []byte) []HistoryEntry {
	t.Helper()
	var resp historyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding history response: %v (%s)", err, body)
	}
	return resp.Entries
}

// TestHistoryParamsRingFallback pins the since/until/limit semantics on
// the ring-backed path: inclusive epoch bounds, newest-limit-kept,
// oldest-first order.
func TestHistoryParamsRingFallback(t *testing.T) {
	ts := historyServer(t, func() []HistoryEntry { return ringOf(40) }, nil)

	cases := []struct {
		query string
		want  []int64
	}{
		{"", seq(1, 40)},
		{"?since=35", seq(35, 40)},
		{"?until=4", seq(1, 4)},
		{"?since=10&until=13", seq(10, 13)},
		{"?limit=3", seq(38, 40)}, // newest 3, oldest-first
		{"?since=10&until=30&limit=5", seq(26, 30)},
		{"?since=0&until=0", seq(1, 40)}, // 0 = unbounded
		{"?since=100", nil},              // empty range
		{"?since=20&until=10", nil},      // inverted range is empty
	}
	for _, tc := range cases {
		status, body := get(t, ts.URL+"/v1/history"+tc.query)
		if status != http.StatusOK {
			t.Fatalf("%q: status %d: %s", tc.query, status, body)
		}
		entries := decodeHistory(t, body)
		got := make([]int64, len(entries))
		for i, e := range entries {
			got[i] = e.Epoch
			if e.ConfigEpoch != 1 {
				t.Errorf("%q: entry %d lost config_epoch: %+v", tc.query, i, e)
			}
		}
		if !int64SlicesEqual(got, tc.want) {
			t.Errorf("%q: epochs %v, want %v", tc.query, got, tc.want)
		}
	}
}

// TestHistoryParamValidation pins the 400 contract: negative or
// non-numeric since/until/limit are rejected before any scan runs.
func TestHistoryParamValidation(t *testing.T) {
	scanned := false
	ts := historyServer(t, nil, func(q HistoryQuery) ([]HistoryEntry, error) {
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
			t.Errorf("%q: invalid query reached the store scan", query)
		}
	}
}

// TestHistoryLimitCap: absent, zero, and over-cap limits all clamp to
// the documented server-side cap.
func TestHistoryLimitCap(t *testing.T) {
	var got []HistoryQuery
	ts := historyServer(t, nil, func(q HistoryQuery) ([]HistoryEntry, error) {
		got = append(got, q)
		return nil, nil
	})
	for _, query := range []string{"", "?limit=0", "?limit=999999"} {
		if status, body := get(t, ts.URL+"/v1/history"+query); status != http.StatusOK {
			t.Fatalf("%q: status %d: %s", query, status, body)
		}
	}
	for i, q := range got {
		if q.Limit != HistoryLimitCap {
			t.Errorf("request %d: limit %d reached the store, want cap %d", i, q.Limit, HistoryLimitCap)
		}
	}
	// The ring fallback honors the cap too.
	ts2 := historyServer(t, func() []HistoryEntry { return ringOf(HistoryLimitCap + 50) }, nil)
	status, body := get(t, ts2.URL+"/v1/history")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	entries := decodeHistory(t, body)
	if len(entries) != HistoryLimitCap {
		t.Fatalf("ring fallback returned %d entries, want cap %d", len(entries), HistoryLimitCap)
	}
	if entries[0].Epoch != 51 || entries[len(entries)-1].Epoch != HistoryLimitCap+50 {
		t.Fatalf("capped ring kept [%d..%d], want the newest %d",
			entries[0].Epoch, entries[len(entries)-1].Epoch, HistoryLimitCap)
	}
}

// TestHistoryStorePreferred: with a HistoryScan wired, the handler
// serves the store's answer (which can reach far past the ring) and
// passes the parsed query through.
func TestHistoryStorePreferred(t *testing.T) {
	var sawQuery HistoryQuery
	deep := ringOf(5) // stands in for store rows older than any ring entry
	ts := historyServer(t,
		func() []HistoryEntry { t.Error("ring consulted despite store"); return nil },
		func(q HistoryQuery) ([]HistoryEntry, error) {
			sawQuery = q
			return deep, nil
		})
	status, body := get(t, ts.URL+"/v1/history?since=2&until=900&limit=10")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if sawQuery != (HistoryQuery{Since: 2, Until: 900, Limit: 10}) {
		t.Fatalf("store saw query %+v", sawQuery)
	}
	if entries := decodeHistory(t, body); len(entries) != 5 {
		t.Fatalf("got %d entries, want the store's 5", len(entries))
	}
}

// TestHistoryStoreError: a failing store scan is a 500, not a silent
// empty series.
func TestHistoryStoreError(t *testing.T) {
	ts := historyServer(t, nil, func(HistoryQuery) ([]HistoryEntry, error) {
		return nil, fmt.Errorf("disk on fire")
	})
	status, body := get(t, ts.URL+"/v1/history")
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", status, body)
	}
}

func seq(from, to int64) []int64 {
	if from > to {
		return nil
	}
	out := make([]int64, 0, to-from+1)
	for ep := from; ep <= to; ep++ {
		out = append(out, ep)
	}
	return out
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
