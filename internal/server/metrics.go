// Package server is tierd's HTTP face: the quote/tiers API served from
// the repricer's atomic snapshots, liveness, and a dependency-free
// Prometheus text exposition of request, ingest and re-price telemetry.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tieredpricing/internal/hist"
	"tieredpricing/internal/stream"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (e.g. the size of the last
// re-priced flow window), safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histSamples renders a histogram's cumulative buckets, sum and count.
func histSamples(h *hist.Histogram) []sample {
	var out []sample
	h.Buckets(func(le float64, cum uint64) {
		out = append(out, sample{"_bucket", fmt.Sprintf(`le="%g"`, le), cum})
	})
	return append(out, sample{"_sum", "", h.Sum()}, sample{"_count", "", h.Count()})
}

// Metrics is tierd's telemetry: request counters per endpoint, quote
// outcome counters, and the re-price cycle's count/error/latency.
type Metrics struct {
	QuoteRequests   Counter
	QuoteMisses     Counter
	TiersRequests   Counter
	HistoryRequests Counter
	HealthRequests  Counter
	MetricsRequests Counter

	// QuoteStale counts quotes served from a snapshot older than the
	// staleness policy (the X-Tierd-Stale responses), so a load test can
	// distinguish "served fast from old data" from healthy serving.
	QuoteStale Counter
	// QuoteRateLimited counts quote requests rejected with 429 by the
	// tenant's token bucket (always zero when no quota is configured).
	QuoteRateLimited Counter
	// QuoteSeconds is the server-side quote latency — request arrival to
	// response written — the daemon-side complement of the latency a
	// client observes (bench/'s quote_p50_us).
	QuoteSeconds *hist.Histogram

	Reprices Counter
	// RepriceFailures counts failed re-price attempts (including backoff
	// retries and empty windows once a snapshot exists — an ingest gap).
	RepriceFailures Counter
	RepriceSeconds  *hist.Histogram
	// RepriceStageNanos sums, per pipeline stage, the wall time of every
	// published re-price, and RepriceStaged counts them: where a re-price
	// spends its time, on the same scrape as how long it took.
	RepriceStageNanos [stream.NumStages]Counter
	RepriceStaged     Counter
	// RepriceRows counts every published re-price's window rows by what
	// the epoch found (rowStates); traces holds the last traceRing of
	// them for /v1/debug/reprice, oldest first.
	RepriceRows [len(rowStates)]Counter
	traceMu     sync.Mutex
	traces      []repriceRecord
	// RepriceFlows is the number of flows priced by the most recent
	// re-price attempt, so window size can be correlated with re-price
	// latency on the same scrape.
	RepriceFlows Gauge
	// ConsecutiveFailures mirrors the repricer's consecutive-failure
	// count: zero while healthy, climbing during a resolver outage or
	// ingest gap, the leading signal before the snapshot goes stale.
	ConsecutiveFailures Gauge
}

// NewMetrics builds the metric set with re-price latency buckets from
// 1 ms to 30 s and quote latency buckets from 50 µs to 1 s (the quote
// path is sub-microsecond; the buckets resolve the HTTP stack on top).
func NewMetrics() *Metrics {
	h, err := hist.New(0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 5, 10, 30)
	if err != nil {
		panic(err) // static bounds; unreachable
	}
	q, err := hist.New(0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
		0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1)
	if err != nil {
		panic(err) // static bounds; unreachable
	}
	return &Metrics{RepriceSeconds: h, QuoteSeconds: q}
}

// ObserveReprice records one re-price attempt for the counters and the
// latency histogram.
func (m *Metrics) ObserveReprice(seconds float64, failed bool) {
	m.Reprices.Inc()
	if failed {
		m.RepriceFailures.Inc()
	}
	m.RepriceSeconds.Observe(seconds)
}

// rowStates labels RepriceRows: rows with no predecessor in the previous
// epoch, with other octets or sample than it, rows of that epoch with no
// successor, and rows carried over as they were.
var rowStates = [...]string{"new", "changed", "retired", "unchanged"}

const traceRing = 32

// repriceRecord is one entry of /v1/debug/reprice.
type repriceRecord struct {
	Epoch    int64              `json:"epoch"`
	FittedAt time.Time          `json:"fitted_at"`
	StagesMs map[string]float64 `json:"stages_ms"`
	stream.RepriceTrace
}

// ObserveSnapshot records one published re-price's trace: its per-stage
// wall times, its row counts and its entry in the debug ring.
func (m *Metrics) ObserveSnapshot(snap *stream.Snapshot) {
	tr := snap.RepriceTrace
	for s, d := range tr.Stages {
		m.RepriceStageNanos[s].Add(uint64(d))
	}
	m.RepriceStaged.Inc()
	for i, n := range [...]int{tr.New, tr.Changed, tr.Retired, tr.Rows - tr.New - tr.Changed} {
		m.RepriceRows[i].Add(uint64(n))
	}
	rec := repriceRecord{Epoch: snap.Epoch, FittedAt: snap.FittedAt, StagesMs: map[string]float64{}, RepriceTrace: tr}
	for s, d := range tr.Stages {
		rec.StagesMs[stream.Stage(s).String()] = d.Seconds() * 1e3
	}
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	if len(m.traces) == traceRing {
		m.traces = m.traces[:copy(m.traces, m.traces[1:])]
	}
	m.traces = append(m.traces, rec)
}
