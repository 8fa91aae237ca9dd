package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tieredpricing/internal/hist"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/sloreport"
)

// Options configures one load-test run.
type Options struct {
	// Target is the tierd base URL (e.g. http://127.0.0.1:8080).
	Target string
	// Datagrams are the pre-encoded NetFlow export packets of the
	// workload trace; Pairs are the src>dst endpoints its records quote.
	// Both come from LoadStream.
	Datagrams [][]byte
	Pairs     []Pair

	QPS      float64
	Duration time.Duration
	Workers  int
	Timeout  time.Duration // per-request; 0 = 5s

	// NetflowAddr, when set, receives the trace's datagrams over UDP at
	// NetflowPPS for the whole measured window, cycling through the
	// trace, so reprice churn and quote serving are measured together.
	// NetflowPPS 0 disables the push; a negative rate pushes unthrottled
	// (ingest-throughput profiling — read the achieved rate back from
	// the report).
	NetflowAddr string
	NetflowPPS  float64

	// Warmup replays the full trace into NetflowAddr and blocks until
	// the daemon serves a 200 quote for every pair in the mix (bounded
	// by WarmupTimeout), so the measured window starts from a priced
	// steady state instead of counting warm-up 503s as errors.
	Warmup        bool
	WarmupTimeout time.Duration // 0 = 30s

	// Tenants switches the run into fleet mode: the quote mix targets
	// each tenant's /v1/t/{id}/quote endpoint using its own Pairs (from
	// PartitionStream, which also stamps Datagrams' engine IDs), and the
	// report carries per-tenant rows. Empty = single-tenant legacy paths.
	Tenants []TenantMix

	// Seed orders the quote mix deterministically.
	Seed int64
	// PID, when non-zero, samples that process's RSS and CPU from /proc
	// over the measured window.
	PID int

	Profile string
}

// Pair is one quotable src>dst endpoint pair from the trace.
type Pair struct{ Src, Dst string }

// LoadStream decodes a concatenated NetFlow v5 export stream (the
// tracegen -stdout format) into per-export datagrams for UDP replay and
// the deduplicated endpoint pairs its records quote, in order of first
// appearance.
func LoadStream(r io.Reader) (datagrams [][]byte, pairs []Pair, err error) {
	rd := netflow.NewReader(r)
	seen := map[Pair]bool{}
	for {
		h, recs, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		pkt, err := netflow.EncodePacket(h, recs)
		if err != nil {
			return nil, nil, err
		}
		datagrams = append(datagrams, pkt)
		for _, rec := range recs {
			p := Pair{Src: rec.SrcAddr.String(), Dst: rec.DstAddr.String()}
			if !seen[p] {
				seen[p] = true
				pairs = append(pairs, p)
			}
		}
	}
	if len(datagrams) == 0 {
		return nil, nil, errors.New("loadgen: stream holds no export packets")
	}
	return datagrams, pairs, nil
}

// worker accumulates one goroutine's observations; merged after the run
// so recording stays lock-free. In fleet mode each worker also keeps a
// sub-accumulator per tenant, so the per-tenant rows come from the same
// lock-free merge as the run totals.
type worker struct {
	hist                              *hist.Histogram
	requests, ok, errs, misses, stale uint64
	tenants                           []*worker
}

// observe records one finished request. latNs is measured from the
// scheduled send time; it only lands in the histogram when the request
// completed at the HTTP layer (transport failures have no meaningful
// service latency).
func (wk *worker) observe(latNs int64, status int, isStale bool, err error) {
	wk.requests++
	if err != nil {
		wk.errs++
		return
	}
	wk.hist.Record(latNs)
	switch {
	case status == http.StatusOK:
		wk.ok++
		if isStale {
			wk.stale++
		}
	case status == http.StatusNotFound:
		wk.errs++
		wk.misses++
	default:
		wk.errs++
	}
}

// quoteTarget is one URL of the quote mix and the tenant it belongs to
// (-1 outside fleet mode).
type quoteTarget struct {
	url    string
	tenant int
}

// Run executes the load test: an open-loop constant-rate schedule
// (vegeta-style — send times are fixed up front; a slow server makes
// latencies grow, it does not make the generator slow down) against the
// quote endpoint, with an optional concurrent NetFlow push, /proc
// resource sampling, and an SLO report at the end.
func Run(ctx context.Context, opts Options) (*sloreport.Report, error) {
	if opts.Target == "" {
		return nil, errors.New("loadgen: no target")
	}
	if opts.QPS <= 0 || opts.Duration <= 0 {
		return nil, errors.New("loadgen: qps and duration must be positive")
	}
	if len(opts.Tenants) == 0 && len(opts.Pairs) == 0 {
		return nil, errors.New("loadgen: no endpoint pairs to quote")
	}
	if opts.Workers <= 0 {
		opts.Workers = 16
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Profile == "" {
		opts.Profile = "adhoc"
	}

	client := &http.Client{
		Timeout: opts.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        opts.Workers * 2,
			MaxIdleConnsPerHost: opts.Workers * 2,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()

	// Pre-build the quote mix in a seed-shuffled order; request i takes
	// targets[i % len], so the mix is the same multiset every run. Fleet
	// mode interleaves every tenant's pairs on its own scoped endpoint.
	var targets []quoteTarget
	if len(opts.Tenants) > 0 {
		for ti, tn := range opts.Tenants {
			if len(tn.Pairs) == 0 {
				return nil, fmt.Errorf("loadgen: tenant %q has no quotable pairs", tn.ID)
			}
			for _, p := range tn.Pairs {
				targets = append(targets, quoteTarget{
					url:    opts.Target + "/v1/t/" + tn.ID + "/quote?src=" + p.Src + "&dst=" + p.Dst,
					tenant: ti,
				})
			}
		}
	} else {
		for _, p := range opts.Pairs {
			targets = append(targets, quoteTarget{
				url:    opts.Target + "/v1/quote?src=" + p.Src + "&dst=" + p.Dst,
				tenant: -1,
			})
		}
	}
	rand.New(rand.NewSource(opts.Seed)).Shuffle(len(targets), func(i, j int) {
		targets[i], targets[j] = targets[j], targets[i]
	})

	if opts.Warmup {
		if err := warmup(ctx, client, opts, targets); err != nil {
			return nil, err
		}
	}

	// Stamp the daemon's build identity into the report. /healthz carries
	// X-Tierd-Build on every response, including warming-up 503s; a
	// transport failure just leaves the field empty.
	build := fetchBuild(ctx, client, opts.Target)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	sampler := newProcSampler(opts.PID)
	var samplerWG sync.WaitGroup
	if sampler != nil {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			sampler.run(runCtx, 100*time.Millisecond)
		}()
	}

	var (
		nfSent uint64
		nfErr  error
		nfWG   sync.WaitGroup
	)
	if opts.NetflowAddr != "" && opts.NetflowPPS != 0 {
		nfWG.Add(1)
		go func() {
			defer nfWG.Done()
			nfSent, nfErr = pushNetflow(runCtx, opts.NetflowAddr, opts.Datagrams, opts.NetflowPPS)
		}()
	}

	// Open-loop schedule: request i is due at start + i/QPS. The channel
	// buffer absorbs jitter; when the server (or the worker pool) falls
	// behind, the due times keep their fixed cadence and the backlog is
	// charged to latency — no coordinated omission.
	total := int(opts.QPS * opts.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	step := time.Duration(float64(time.Second) / opts.QPS)
	due := make(chan time.Time, 1024)

	workers := make([]*worker, opts.Workers)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := range workers {
		wk := &worker{hist: hist.New()}
		if n := len(opts.Tenants); n > 0 {
			wk.tenants = make([]*worker, n)
			for i := range wk.tenants {
				wk.tenants[i] = &worker{hist: hist.New()}
			}
		}
		workers[w] = wk
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for sched := range due {
				tgt := targets[int(next.Add(1)-1)%len(targets)]
				status, isStale, err := fire(runCtx, client, tgt.url)
				latNs := int64(time.Since(sched))
				wk.observe(latNs, status, isStale, err)
				if tgt.tenant >= 0 {
					wk.tenants[tgt.tenant].observe(latNs, status, isStale, err)
				}
			}
		}(workers[w])
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
sched:
	for i := 0; i < total; i++ {
		at := start.Add(time.Duration(i) * step)
		if wait := time.Until(at); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break sched
			}
		}
		select {
		case due <- at:
		case <-ctx.Done():
			break sched
		}
	}
	close(due)
	wg.Wait()
	elapsed := time.Since(start)
	cancel()
	nfWG.Wait()
	samplerWG.Wait()
	if nfErr != nil {
		return nil, fmt.Errorf("loadgen: netflow push: %w", nfErr)
	}

	merged := hist.New()
	report := &sloreport.Report{
		Profile:     opts.Profile,
		Seed:        opts.Seed,
		Build:       build,
		TargetQPS:   opts.QPS,
		DurationSec: elapsed.Seconds(),
	}
	for _, wk := range workers {
		if err := merged.Merge(wk.hist); err != nil {
			return nil, err
		}
		report.Requests += wk.requests
		report.OK += wk.ok
		report.Errors += wk.errs
		report.Misses += wk.misses
		report.Stale += wk.stale
	}
	if report.Requests == 0 {
		return nil, errors.New("loadgen: no requests completed")
	}
	report.AchievedQPS = float64(report.Requests) / elapsed.Seconds()
	report.ErrorRate = float64(report.Errors) / float64(report.Requests)
	report.StaleRate = float64(report.Stale) / float64(report.Requests)
	report.Latency = latencyFrom(merged)
	if n := len(opts.Tenants); n > 0 {
		report.Tenants = make([]sloreport.Tenant, n)
		for ti := range opts.Tenants {
			row := &report.Tenants[ti]
			row.ID = opts.Tenants[ti].ID
			th := hist.New()
			for _, wk := range workers {
				sub := wk.tenants[ti]
				if err := th.Merge(sub.hist); err != nil {
					return nil, err
				}
				row.Requests += sub.requests
				row.OK += sub.ok
				row.Errors += sub.errs
				row.Misses += sub.misses
				row.Stale += sub.stale
			}
			if row.Requests > 0 {
				row.ErrorRate = float64(row.Errors) / float64(row.Requests)
				row.StaleRate = float64(row.Stale) / float64(row.Requests)
			}
			row.Latency = latencyFrom(th)
		}
	}
	report.Netflow = sloreport.Netflow{
		Datagrams:   nfSent,
		TargetPPS:   opts.NetflowPPS,
		AchievedPPS: float64(nfSent) / elapsed.Seconds(),
	}
	if sampler != nil {
		report.Proc = sampler.result()
	}
	if err := report.Validate(); err != nil {
		return nil, err
	}
	return report, nil
}

// latencyFrom snapshots a merged histogram into report form.
func latencyFrom(h *hist.Histogram) sloreport.Latency {
	return sloreport.Latency{
		P50Ns:  h.Quantile(0.50),
		P90Ns:  h.Quantile(0.90),
		P99Ns:  h.Quantile(0.99),
		P999Ns: h.Quantile(0.999),
		MaxNs:  h.Max(),
		MeanNs: h.Mean(),
	}
}

// fetchBuild reads the daemon's build identity from /healthz's
// X-Tierd-Build header. Best effort: any failure returns "".
func fetchBuild(ctx context.Context, client *http.Client, target string) string {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/healthz", nil)
	if err != nil {
		return ""
	}
	resp, err := client.Do(req)
	if err != nil {
		return ""
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.Header.Get("X-Tierd-Build")
}

// fire issues one quote request and drains the body so the connection is
// reused. isStale reports the X-Tierd-Stale degraded-mode tag.
func fire(ctx context.Context, client *http.Client, url string) (status int, isStale bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Tierd-Stale") == "true", nil
}

// pushNetflow sends the trace's datagrams to addr at a constant packet
// rate, cycling through the trace until ctx is cancelled. Re-sent
// datagrams are idempotent: the window's cross-router dedup suppresses
// them, so the push exercises ingest and reprice churn without inflating
// demand. pps <= 0 pushes unthrottled — as fast as the socket accepts —
// for ingest-throughput profiling against a sharded collector; the
// achieved rate lands in the report's netflow section.
func pushNetflow(ctx context.Context, addr string, datagrams [][]byte, pps float64) (sent uint64, err error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if pps <= 0 {
		for i := 0; ; i++ {
			// Poll for cancellation between bursts, not every datagram.
			if i%256 == 0 {
				select {
				case <-ctx.Done():
					return sent, nil
				default:
				}
			}
			if _, err := conn.Write(datagrams[i%len(datagrams)]); err != nil {
				return sent, err
			}
			sent++
		}
	}
	ticker := time.NewTicker(time.Duration(float64(time.Second) / pps))
	defer ticker.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return sent, nil
		case <-ticker.C:
			if _, err := conn.Write(datagrams[i%len(datagrams)]); err != nil {
				return sent, err
			}
			sent++
		}
	}
}

// warmup replays the whole trace into the ingest path and waits until
// every pair in the quote mix is priced. The daemon picks up re-sent
// data only at its next re-price, and any replay can be partly shed by
// a full socket buffer (the window de-duplicates what arrives twice), so
// the loop replays, probes and backs off until the deadline.
func warmup(ctx context.Context, client *http.Client, opts Options, targets []quoteTarget) error {
	if opts.NetflowAddr == "" {
		return errors.New("loadgen: -warmup needs a netflow address to replay into")
	}
	timeout := opts.WarmupTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	conn, err := net.Dial("udp", opts.NetflowAddr)
	if err != nil {
		return err
	}
	defer conn.Close()

	missing := len(targets)
	for {
		// Replay the full trace; pacing keeps the loopback socket buffer
		// from shedding most of it.
		for i, d := range opts.Datagrams {
			if _, err := conn.Write(d); err != nil {
				return err
			}
			if i%64 == 63 {
				time.Sleep(time.Millisecond)
			}
		}
		// Probe the mix; a miss gives the daemon a re-price interval's
		// grace before the next replay.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		missing = 0
		for _, tgt := range targets {
			status, _, err := fire(ctx, client, tgt.url)
			if err != nil || status != http.StatusOK {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		time.Sleep(200 * time.Millisecond)
		if !time.Now().Before(deadline) {
			return fmt.Errorf("loadgen: warm-up deadline: %d of %d pairs still unpriced", missing, len(targets))
		}
	}
}
