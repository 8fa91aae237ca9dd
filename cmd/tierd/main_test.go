package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// writeTraceDir materializes the parts of a tracegen output directory
// tierd reads: geoip.csv and meta.txt.
func writeTraceDir(t testing.TB, ds *traces.Dataset, routers int) string {
	t.Helper()
	dir := t.TempDir()
	geo, err := os.Create(filepath.Join(dir, "geoip.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Geo.WriteCSV(geo); err != nil {
		t.Fatal(err)
	}
	if err := geo.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := os.Create(filepath.Join(dir, "meta.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := traces.WriteMeta(meta, traces.Meta{
		Dataset: ds.Name, Flows: len(ds.Flows), P0: ds.P0,
		DurationSec: ds.DurationSec, Sampling: int(ds.SamplingInterval), Routers: routers,
	}); err != nil {
		t.Fatal(err)
	}
	if err := meta.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sortedRouters returns stream keys in deterministic order.
func sortedRouters(streams map[string][]byte) []string {
	routers := make([]string, 0, len(streams))
	for r := range streams {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	return routers
}

// replayUDP re-packetizes every router stream and sends each export
// packet as one datagram, as real routers do. Returns datagrams sent.
func replayUDP(t testing.TB, addr string, streams map[string][]byte) int {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := 0
	for _, router := range sortedRouters(streams) {
		rd := netflow.NewReader(bytes.NewReader(streams[router]))
		for {
			h, recs, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			pkt, err := netflow.EncodePacket(h, recs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(pkt); err != nil {
				t.Fatal(err)
			}
			sent++
			if sent%64 == 0 {
				// Pace the replay so the loopback socket buffer keeps up.
				time.Sleep(time.Millisecond)
			}
		}
	}
	return sent
}

// batchAggregates runs the batch collector over the same streams in the
// same deterministic order.
func batchAggregates(t testing.TB, streams map[string][]byte) []netflow.Aggregate {
	t.Helper()
	c := stream.NewCollector(traces.AggregateKey)
	for _, router := range sortedRouters(streams) {
		if _, err := netflow.Feed(c, bytes.NewReader(streams[router])); err != nil {
			t.Fatal(err)
		}
	}
	return c.Aggregates()
}

// demandMatches reports whether the window holds exactly the batch
// pipeline's de-duplicated demand (key, octets, record count). Endpoint
// samples are excluded: they can legitimately differ when a lost
// datagram is replayed, and the pricing pipeline does not read them.
func demandMatches(window, batch []netflow.Aggregate) bool {
	if len(window) != len(batch) {
		return false
	}
	for i := range window {
		if window[i].Key != batch[i].Key ||
			window[i].Octets != batch[i].Octets ||
			window[i].Records != batch[i].Records {
			return false
		}
	}
	return true
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

// TestTierdEndToEnd is the acceptance test: start the daemon, replay a
// generated trace over UDP, and assert /v1/tiers and /v1/quote are
// byte-identical to the batch pipeline on the same window, then shut
// down gracefully.
func TestTierdEndToEnd(t *testing.T) {
	ds, err := traces.EUISP(91)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	dir := writeTraceDir(t, ds, len(streams))

	cfg := config{
		listen: "127.0.0.1:0", udp: "127.0.0.1:0", trace: dir,
		window: 4 * time.Hour, slot: time.Hour, reprice: time.Hour,
	}
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.run(ctx, strings.NewReader("")) }()

	// Before any ingest: warming up.
	if code := getJSON(t, "http://"+d.httpAddr()+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz before ingest: %d, want 503", code)
	}

	// Replay the capture over UDP; datagram loss is tolerated by
	// re-sending (the window de-duplicates), so the assertion below is
	// about correctness, not lossless UDP.
	batch := batchAggregates(t, streams)
	deadline := time.Now().Add(30 * time.Second)
	for {
		sent := replayUDP(t, d.udpAddr(), streams)
		if err := d.udp.Drain(sent, 5*time.Second); err != nil {
			t.Log(err) // loss: the re-send below repairs it
		}
		if demandMatches(d.members[0].window.Aggregates(), batch) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("window never converged to the batch aggregates")
		}
	}

	// Trigger a re-price as the ticker would.
	if _, err := d.members[0].repricer.Reprice(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Batch reference on the identical window.
	rv := &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true}
	flows, _, err := demandfit.BuildFlows(batch, rv, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}
	batchTable, err := stream.BatchTable(flows, econ.CED{Alpha: 1.1}, cost.Linear{Theta: 0.2},
		ds.P0, bundling.ProfitWeighted{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantTable, err := batchTable.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// /v1/tiers must carry the batch pipeline's table byte for byte.
	var tiersResp struct {
		Epoch int64           `json:"epoch"`
		Table json.RawMessage `json:"table"`
	}
	if code := getJSON(t, "http://"+d.httpAddr()+"/v1/tiers", &tiersResp); code != http.StatusOK {
		t.Fatalf("/v1/tiers: status %d", code)
	}
	if !bytes.Equal([]byte(tiersResp.Table), wantTable) {
		t.Fatalf("/v1/tiers diverges from batch pipeline:\nonline: %s\nbatch:  %s", tiersResp.Table, wantTable)
	}

	// Every flow quotes the batch pipeline's price for its bucket.
	market, err := core.NewMarket(flows, econ.CED{Alpha: 1.1}, cost.Linear{Theta: 0.2}, ds.P0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := market.Run(bundling.ProfitWeighted{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	priceOf := map[string]float64{} // bucket key → batch price
	for b, block := range out.Partition {
		for _, i := range block {
			priceOf[flows[i].ID] = out.Prices[b]
		}
	}
	for _, a := range batch {
		var q struct {
			Price  float64 `json:"price_usd_per_mbps_month"`
			Source string  `json:"source"`
		}
		url := fmt.Sprintf("http://%s/v1/quote?src=%s&dst=%s", d.httpAddr(), a.SrcAddr, a.DstAddr)
		if code := getJSON(t, url, &q); code != http.StatusOK {
			t.Fatalf("quote %s: status %d", a.Key, code)
		}
		if q.Price != priceOf[a.Key] {
			t.Fatalf("quote %s: price %v, batch pipeline prices it %v", a.Key, q.Price, priceOf[a.Key])
		}
		if q.Source != "window" {
			t.Errorf("quote %s from %q, want window", a.Key, q.Source)
		}
	}

	// Health and metrics reflect the running system.
	if code := getJSON(t, "http://"+d.httpAddr()+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: %d, want 200", code)
	}
	resp, err := http.Get("http://" + d.httpAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tierd_ingest_packets_total",
		"tierd_quote_requests_total",
		"tierd_snapshot_epoch 1",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Graceful shutdown: cancel (as SIGTERM would) and drain.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
}

// TestTierdStdinIngest covers the tracegen -stdout | tierd -stdin pipe:
// the daemon prices the stream as soon as it ends.
func TestTierdStdinIngest(t *testing.T) {
	ds, err := traces.EUISP(93)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	dir := writeTraceDir(t, ds, len(streams))
	var pipe bytes.Buffer
	for _, router := range sortedRouters(streams) {
		pipe.Write(streams[router])
	}

	cfg := config{
		listen: "127.0.0.1:0", trace: dir, stdin: true,
		window: 4 * time.Hour, slot: time.Hour, reprice: time.Hour,
	}
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.run(ctx, &pipe) }()

	// The stdin path re-prices on EOF; poll until the snapshot appears.
	deadline := time.Now().Add(30 * time.Second)
	for d.members[0].repricer.Current() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot after stdin replay")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var tiersResp struct {
		Table json.RawMessage `json:"table"`
	}
	if code := getJSON(t, "http://"+d.httpAddr()+"/v1/tiers", &tiersResp); code != http.StatusOK {
		t.Fatalf("/v1/tiers: status %d", code)
	}
	if !strings.Contains(string(tiersResp.Table), `"strategy":"profit-weighted"`) {
		t.Errorf("unexpected table %s", tiersResp.Table)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestStartDaemonErrors(t *testing.T) {
	ds, err := traces.EUISP(95)
	if err != nil {
		t.Fatal(err)
	}
	dir := writeTraceDir(t, ds, 2)
	good := config{
		listen: "127.0.0.1:0", udp: "127.0.0.1:0", trace: dir,
		window: time.Hour, slot: time.Minute, reprice: time.Minute,
	}
	// A taken -listen port fails the start after durability is open and
	// its checkpoint loop is ticking: the teardown must release both.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	takenPort := func(c *config) {
		c.listen = taken.Addr().String()
		c.dataDir = t.TempDir()
		c.ckptInterval = 5 * time.Millisecond
	}
	// A -udp port another daemon holds is refused, not shared: the
	// collector's one socket binds without SO_REUSEPORT.
	held, err := startDaemon(good)
	if err != nil {
		t.Fatal(err)
	}
	defer held.abort()
	specPath := writeSpecFile(t, t.TempDir(), `{"tenants": [{"id": "net-a"}, {"id": "net-b", "routers": [2]}]}`)
	negBlended := writeSpecFile(t, t.TempDir(), `{"tenants": [{"id": "net-a"}, {"id": "net-b", "routers": [2], "blended": -3}]}`)
	// pricing sets a -config file holding body.
	pricing := func(body string) func(*config) {
		return func(c *config) {
			c.configFile = filepath.Join(t.TempDir(), "pricing.json")
			writeConfigFile(t, c.configFile, body)
		}
	}
	cases := []func(*config){
		func(c *config) { c.udp = held.udpAddr() },                           // UDP port held by a daemon
		func(c *config) { c.trace = t.TempDir() },                            // no meta.txt
		pricing(`{"model": "nonesuch"}`),                                     // unknown model
		pricing(`{"strategy": "nonesuch"}`),                                  // unknown strategy
		func(c *config) { c.window = time.Second; c.slot = 2 * time.Second }, // window < slot
		pricing(`{"tiers": 0}`),                                              // repricer validation
		takenPort,                                                            // occupied port, synthesised member
		func(c *config) { takenPort(c); c.tenantsFile = specPath },           // occupied port, -tenants fleet
		pricing(`{"blended": -3}`),                                           // negative blended in -config
		func(c *config) { c.tenantsFile = negBlended },                       // negative blended in a spec
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := startDaemon(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if cfg.dataDir != "" {
			assertReleased(t, i, cfg.dataDir)
		}
	}
}

// assertReleased fails if a failed start left durable state under
// dataDir in use: a checkpoint loop still writing files, or a WAL
// segment still open.
func assertReleased(t *testing.T, i int, dataDir string) {
	t.Helper()
	listing := func() string {
		var paths []string
		filepath.WalkDir(dataDir, func(path string, _ os.DirEntry, err error) error {
			if err == nil {
				paths = append(paths, path)
			}
			return nil
		})
		return strings.Join(paths, "\n")
	}
	before := listing()
	time.Sleep(100 * time.Millisecond) // 20 checkpoint intervals
	if after := listing(); after != before {
		t.Errorf("bad config %d: checkpoint loop outlived the failed start:\nbefore:\n%s\nafter:\n%s", i, before, after)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return // no fd table to inspect on this platform
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dataDir) {
			t.Errorf("bad config %d: failed start left %s open", i, target)
		}
	}
}

// captureStderr points os.Stderr at a file until the returned function
// puts it back and returns what was written meanwhile. The daemon logs
// to os.Stderr as it finds it at each write, so a caller starts its
// daemon after this and stops it before restoring.
func captureStderr(t *testing.T) (restore func() string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stderr
	os.Stderr = f
	return func() string {
		os.Stderr = orig
		f.Close()
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
}

// TestAbortedStartLogsNoAcceptError: a start that fails once the HTTP
// server is serving (here the pprof port is taken) is torn down by
// closing the server, not just its listener, which would make Serve log
// "use of closed network connection". The abort waits for Serve to
// return, so stderr is complete when the start fails.
func TestAbortedStartLogsNoAcceptError(t *testing.T) {
	ds, err := traces.EUISP(96)
	if err != nil {
		t.Fatal(err)
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := config{
		listen: "127.0.0.1:0", udp: "127.0.0.1:0", trace: writeTraceDir(t, ds, 2),
		window: time.Hour, slot: time.Minute, reprice: time.Minute, pprofAddr: taken.Addr().String(),
	}
	restore := captureStderr(t)
	_, err = startDaemon(cfg)
	// A line that must not appear cannot be waited for: give a Serve
	// goroutine that outlived the abort anyway the time to print it.
	time.Sleep(50 * time.Millisecond)
	logged := restore()
	if err == nil || !strings.Contains(err.Error(), "pprof listen") {
		t.Fatalf("start with the pprof port taken: %v, want a pprof listen error", err)
	}
	if strings.Contains(logged, "use of closed network connection") || strings.Contains(logged, "tierd: http:") {
		t.Fatalf("an aborted start logged a serve error:\n%s", logged)
	}
}

// TestRunDrain pins the one drain sequence's re-price step (formerly
// stream.Repricer.Run's): cancelling run performs exactly one final
// re-price per member, so traffic ingested after the last tick is still
// priced, and that re-price is bounded by -drain-grace, so a resolve
// wedged on a dead backend delays shutdown by the grace period, never
// forever.
func TestRunDrain(t *testing.T) {
	ds, err := traces.EUISP(78)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	dir := writeTraceDir(t, ds, len(streams))
	grams := traceDatagrams(t, streams)
	for _, tc := range []struct {
		name string
		hang bool
	}{{"final re-price", false}, {"bounded by grace", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config{
				listen: "127.0.0.1:0", trace: dir,
				window: 4 * time.Hour, slot: time.Hour,
				// Interval far beyond the test's lifetime: the only re-price
				// that can happen is the drain pass.
				reprice: time.Hour, drainGrace: 200 * time.Millisecond,
				wrapResolver: func(rv demandfit.EndpointResolver) demandfit.EndpointResolver {
					hung := faultinject.NewResolver(faultinject.New(83), rv)
					hung.SetHang(tc.hang)
					return hung
				},
			}
			d, err := startDaemon(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			runErr := make(chan error, 1)
			go func() { runErr <- d.run(ctx, nil) }()
			for _, g := range grams {
				d.sink.Ingest(g.h, g.recs)
			}
			cancel()
			select {
			case err := <-runErr:
				if err != nil {
					t.Fatalf("run: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("run wedged past the drain grace")
			}
			m := d.members[0]
			if got := m.metrics.Reprices.Value(); got != 1 {
				t.Errorf("%d re-prices, want exactly the drain pass", got)
			}
			if tc.hang {
				if m.repricer.Current() != nil {
					t.Error("failed drain published a snapshot")
				}
				if m.repricer.ConsecutiveFailures() != 1 || m.metrics.RepriceFailures.Value() != 1 {
					t.Errorf("consecutive failures = %d, failure counter = %d, want 1 and 1",
						m.repricer.ConsecutiveFailures(), m.metrics.RepriceFailures.Value())
				}
			} else if m.repricer.Current() == nil {
				t.Error("no snapshot after the drain re-price")
			}
		})
	}
}

// TestRunDrainStdinOpen: SIGTERM drains within -drain-grace while
// stdin is an open pipe that has gone silent. The read blocked on it is
// not waited for; the datagrams it delivered before are covered by the
// final re-price.
func TestRunDrainStdinOpen(t *testing.T) {
	ds, err := traces.EUISP(80)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		listen: "127.0.0.1:0", trace: writeTraceDir(t, ds, len(streams)), stdin: true,
		window: 4 * time.Hour, slot: time.Hour,
		reprice: time.Hour, drainGrace: 500 * time.Millisecond,
	}
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pw.Close() // only after run has returned: the pipe stays open across the drain
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.run(ctx, pr) }()
	for _, router := range sortedRouters(streams) {
		if _, err := pw.Write(streams[router]); err != nil {
			t.Fatal(err)
		}
	}
	batch := batchAggregates(t, streams)
	m := d.members[0]
	for deadline := time.Now().Add(30 * time.Second); !demandMatches(m.window.Aggregates(), batch); {
		if time.Now().After(deadline) {
			t.Fatal("window never applied the stdin datagrams")
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(cfg.drainGrace + 5*time.Second):
		t.Fatal("run waited on the open stdin pipe past the drain grace")
	}
	t.Logf("drained in %v", time.Since(start))

	snap := m.repricer.Current()
	if snap == nil {
		t.Fatal("no snapshot after the drain re-price")
	}
	got, err := snap.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	flows, _, err := demandfit.BuildFlows(batch, &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true}, ds.DurationSec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.BatchTable(flows, econ.CED{Alpha: 1.1}, cost.Linear{Theta: 0.2}, ds.P0, bundling.ProfitWeighted{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("final table does not cover the stdin datagrams:\ngot  %s\nwant %s", got, wantBytes)
	}
}

// BenchmarkQuoteLoad is the quote-path load benchmark: it drives the
// snapshot lookup that backs /v1/quote and reports tail latency. The
// hot path must not allocate (allocs/op 0; pinned by the stream
// package's TestQuoteZeroAllocs).
func BenchmarkQuoteLoad(b *testing.B) {
	ds, err := traces.EUISP(96)
	if err != nil {
		b.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 97})
	if err != nil {
		b.Fatal(err)
	}
	w, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, router := range sortedRouters(streams) {
		if _, err := netflow.Feed(w, bytes.NewReader(streams[router])); err != nil {
			b.Fatal(err)
		}
	}
	rp, err := stream.NewRepricer(stream.Config{
		Window:      w,
		Resolver:    &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true},
		Demand:      econ.CED{Alpha: 1.1},
		Cost:        cost.Linear{Theta: 0.2},
		P0:          ds.P0,
		Strategy:    bundling.ProfitWeighted{},
		Tiers:       3,
		DurationSec: ds.DurationSec,
	})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	type pair struct{ src, dst netip.Addr }
	aggs := w.Aggregates()
	keys := make([]pair, len(aggs))
	for i, a := range aggs {
		keys[i] = pair{a.SrcAddr, a.DstAddr}
	}

	lat := make([]int64, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		start := time.Now()
		q, ok := snap.Quote(k.src, k.dst)
		lat[i] = int64(time.Since(start))
		if !ok || q.Price <= 0 {
			b.Fatal("quote miss on the hot path")
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if len(lat) > 0 {
		b.ReportMetric(float64(p99), "p99-ns")
	}
}

// TestTierdFlags: tierd registers 21 flags. The eight pricing flags
// are gone: the pricing starts from tenant.DefaultPricing, and a
// -config file sets the same keys.
func TestTierdFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "tierd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tierd: %v\n%s", err, out)
	}
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	var flags []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' })[0])
		}
	}
	if len(flags) != 21 {
		t.Errorf("tierd -h lists %d flags, want 21: %v", len(flags), flags)
	}
	for _, gone := range []string{"model", "alpha", "s0", "theta", "strategy", "tiers", "blended", "demand-sec"} {
		if slices.Contains(flags, gone) {
			t.Errorf("tierd still registers -%s", gone)
		}
	}
}
