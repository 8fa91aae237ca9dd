package main

// Multi-tenant acceptance tests. TestTenantParityKill9 is the fleet
// ground truth: one 3-tenant tierd process over a router-partitioned
// trace must price every tenant byte-identically to three single-tenant
// tierd processes each fed only that tenant's partition — before a
// crash, and again after all four processes are SIGKILLed and recover
// from their durability namespaces. TestTenantWFQFairness bounds the
// quote-latency bleed a re-price-hungry tenant can inflict on a quiet
// one, and TestTenantIsolation runs the in-process fleet under the race
// detector with one tenant's resolver hard-failing: the healthy
// tenants' quote paths, staleness and quotas must not notice.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// labeledMetric scrapes one tenant-labeled sample from /metrics.
func labeledMetric(t *testing.T, httpAddr, name, tenantID string) (float64, bool) {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	prefix := fmt.Sprintf("%s{tenant=%q} ", name, tenantID)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, prefix)), 64)
			if err != nil {
				t.Fatalf("parsing %s: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

// writeSpecFile persists a -tenants JSON document.
func writeSpecFile(t *testing.T, dir, spec string) string {
	t.Helper()
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// partitionDatagrams splits a trace round-robin across n tenants,
// stamping each datagram's engine ID so the registry routes partition k
// to the tenant owning router k+1. Round-robin (not contiguous thirds)
// interleaves the partitions on the shared collector, which is the
// adversarial arrival order for routing.
func partitionDatagrams(grams []datagram, n int) [][]datagram {
	parts := make([][]datagram, n)
	for i := range grams {
		k := i % n
		grams[i].h.EngineID = uint8(k + 1)
		parts[k] = append(parts[k], grams[i])
	}
	return parts
}

// sendDatagrams replays decoded datagrams (engine IDs included) over UDP.
func sendDatagrams(t *testing.T, addr string, grams []datagram) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, g := range grams {
		pkt, err := netflow.EncodePacket(g.h, g.recs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		if (i+1)%16 == 0 {
			// Pace the replay so the loopback socket buffer keeps up.
			time.Sleep(time.Millisecond)
		}
	}
}

// tableBytes fetches one tiers endpoint's canonical table.
func tableBytes(t *testing.T, httpAddr, path string) []byte {
	t.Helper()
	var tr struct {
		Table json.RawMessage `json:"table"`
	}
	if code := getJSON(t, "http://"+httpAddr+path, &tr); code != http.StatusOK {
		t.Fatalf("%s: status %d", path, code)
	}
	return tr.Table
}

// waitHealthy polls /healthz until it answers 200 (for a fleet daemon,
// until every tenant is serving a fresh snapshot).
func waitHealthy(t *testing.T, httpAddr string, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		resp, err := http.Get("http://" + httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(end) {
			t.Fatalf("daemon on %s never became healthy", httpAddr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestTenantParityKill9 is the fleet acceptance gate: a 3-tenant
// process and 3 single-tenant processes price identical partitions
// identically — the multiplexing must be invisible in the output — and
// kill -9 plus recovery from the per-tenant durability namespaces
// preserves that, byte for byte.
func TestTenantParityKill9(t *testing.T) {
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
	grams := traceDatagrams(t, streams)
	if len(grams) < 6 {
		t.Fatalf("trace too small: %d datagrams", len(grams))
	}
	ids := []string{"net-a", "net-b", "net-c"}
	parts := partitionDatagrams(grams, len(ids))
	// Expected unique record count per partition, after the window's
	// cross-router duplicate suppression (the trace deliberately exports
	// some flows at both endpoint routers).
	expRecords := make([]int, len(ids))
	for k := range parts {
		w, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range parts[k] {
			w.Ingest(g.h, g.recs)
		}
		expRecords[k], _, _, _ = w.Stats()
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "tierd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tierd: %v\n%s", err, out)
	}
	specPath := writeSpecFile(t, tmp, `{"tenants": [
		{"id": "net-a", "routers": [1]},
		{"id": "net-b", "routers": [2]},
		{"id": "net-c", "routers": [3]}
	]}`)

	common := []string{
		"-listen", "127.0.0.1:0", "-udp", "127.0.0.1:0", "-trace", traceDir,
		"-window", "4h", "-slot", "1h", "-reprice", "300ms",
		"-checkpoint-interval", "400ms", "-wal-sync", "batch",
	}
	fleetData := filepath.Join(tmp, "fleet")
	fleetArgs := append(append([]string{}, common...), "-tenants", specPath, "-data-dir", fleetData)
	soloArgs := make([][]string, len(ids))
	for k, id := range ids {
		soloArgs[k] = append(append([]string{}, common...), "-data-dir", filepath.Join(tmp, "solo-"+id))
	}

	type proc struct {
		cmd       *exec.Cmd
		http, udp string
	}
	var alive []*proc
	t.Cleanup(func() {
		for _, p := range alive {
			if p.cmd.Process != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	})
	start := func(args []string) *proc {
		cmd, httpAddr, udpAddr := startTierd(t, bin, args...)
		p := &proc{cmd: cmd, http: httpAddr, udp: udpAddr}
		alive = append(alive, p)
		return p
	}
	kill9 := func(p *proc) {
		if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		p.cmd.Wait()
		for i, q := range alive {
			if q == p {
				alive = append(alive[:i], alive[i+1:]...)
				break
			}
		}
	}

	fleet := start(fleetArgs)
	solos := make([]*proc, len(ids))
	for k := range ids {
		solos[k] = start(soloArgs[k])
	}

	// Feed each daemon until its accepted-record counter matches the
	// partition's unique count exactly. Loopback UDP can drop datagrams
	// under load, but duplicate suppression spans the whole window, so
	// retransmitting the full stream is idempotent — the accepted set
	// converges on the complete partition, which is what byte-parity
	// needs. The WAL write()s every append before returning, so once the
	// counters match, kill -9 cannot lose accepted records.
	feed := func(udpAddr string, grams []datagram, want int, records func() (float64, bool), what string) {
		t.Helper()
		deadline := time.Now().Add(90 * time.Second)
		for {
			sendDatagrams(t, udpAddr, grams)
			settle := time.Now().Add(3 * time.Second)
			for time.Now().Before(settle) {
				if v, ok := records(); ok && int(v) == want {
					return
				}
				time.Sleep(100 * time.Millisecond)
			}
			if time.Now().After(deadline) {
				v, _ := records()
				t.Fatalf("%s: accepted records stuck at %v, want %d", what, v, want)
			}
		}
	}
	feedTenant := func(k int) {
		id := ids[k]
		feed(fleet.udp, parts[k], expRecords[k], func() (float64, bool) {
			return labeledMetric(t, fleet.http, "tierd_ingest_records_total", id)
		}, "fleet tenant "+id)
	}
	for k := range ids {
		feedTenant(k)
		feed(solos[k].udp, parts[k], expRecords[k], func() (float64, bool) {
			return metricValue(t, solos[k].http, "tierd_ingest_records_total")
		}, "solo "+ids[k])
	}

	// Wait for a checkpoint and a snapshot fitted after the last record
	// arrived (two epochs past the settle point guarantees a re-price
	// that started after convergence), so the tables compared below
	// cover the full partitions.
	quiesce := func(check func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !check() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never quiesced", what)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	epochFloor := make([]float64, len(ids))
	soloEpochFloor := make([]float64, len(ids))
	for k, id := range ids {
		epochFloor[k], _ = labeledMetric(t, fleet.http, "tierd_snapshot_epoch", id)
		soloEpochFloor[k], _ = metricValue(t, solos[k].http, "tierd_snapshot_epoch")
	}
	quiesce(func() bool {
		for k, id := range ids {
			ckpts, ok1 := labeledMetric(t, fleet.http, "tierd_checkpoints_total", id)
			epoch, ok2 := labeledMetric(t, fleet.http, "tierd_snapshot_epoch", id)
			if !ok1 || !ok2 || ckpts < 1 || epoch < epochFloor[k]+2 {
				return false
			}
		}
		return true
	}, "fleet")
	for k := range ids {
		k := k
		quiesce(func() bool {
			ckpts, ok1 := metricValue(t, solos[k].http, "tierd_checkpoints_total")
			epoch, ok2 := metricValue(t, solos[k].http, "tierd_snapshot_epoch")
			return ok1 && ok2 && ckpts >= 1 && epoch >= soloEpochFloor[k]+2
		}, "solo "+ids[k])
	}

	// Parity before the crash: each tenant's canonical table equals the
	// matching solo daemon's (FittedAt and epoch are serving metadata
	// and deliberately excluded — the table bytes are the contract).
	compare := func(when string) [][]byte {
		t.Helper()
		tables := make([][]byte, len(ids))
		for k, id := range ids {
			got := tableBytes(t, fleet.http, "/v1/t/"+id+"/tiers")
			want := tableBytes(t, solos[k].http, "/v1/tiers")
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: tenant %s diverges from solo run:\nfleet %s\nsolo  %s", when, id, got, want)
			}
			tables[k] = got
		}
		return tables
	}
	before := compare("before crash")

	// The fleet's durable state lives in per-tenant namespaces.
	for _, id := range ids {
		for _, sub := range []string{"wal", "checkpoint"} {
			dir := filepath.Join(fleetData, "tenants", id, sub)
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				t.Errorf("missing tenant namespace dir %s: %v", dir, err)
			}
		}
	}

	// kill -9 all four at a seeded point, restart, and require the same
	// parity again — now through per-namespace recovery.
	killDelay := time.Duration(uint64(seed)*2654435761%200) * time.Millisecond
	time.Sleep(killDelay)
	kill9(fleet)
	for k := range ids {
		kill9(solos[k])
	}

	fleet = start(fleetArgs)
	for k := range ids {
		solos[k] = start(soloArgs[k])
	}
	waitHealthy(t, fleet.http, 30*time.Second)
	for k := range ids {
		waitHealthy(t, solos[k].http, 30*time.Second)
	}
	after := compare("after kill -9 recovery")
	for k, id := range ids {
		if !bytes.Equal(before[k], after[k]) {
			t.Errorf("tenant %s: recovered table differs from pre-crash table:\nbefore %s\nafter  %s",
				id, before[k], after[k])
		}
	}
	fmt.Fprintf(os.Stderr, "tenant kill9: %d datagrams across %d tenants, killDelay %v\n",
		len(grams), len(ids), killDelay)
}

// fleetHarness runs an in-process multi-tenant daemon for the fairness
// and isolation tests.
type fleetHarness struct {
	d      *daemon
	cancel context.CancelFunc
	done   chan struct{}
}

func startFleetHarness(t *testing.T, cfg config) *fleetHarness {
	t.Helper()
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &fleetHarness{d: d, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		if err := d.run(ctx, nil); err != nil {
			fmt.Fprintln(os.Stderr, "fleet harness:", err)
		}
	}()
	t.Cleanup(h.stop)
	return h
}

func (h *fleetHarness) stop() {
	h.cancel()
	<-h.done
}

// ingestAs routes a copy of every datagram to the tenant owning router
// engineID.
func (h *fleetHarness) ingestAs(engineID uint8, grams []datagram) {
	for _, g := range grams {
		hdr := g.h
		hdr.EngineID = engineID
		h.d.sink.Ingest(hdr, g.recs)
	}
}

// waitTenantServing polls a tenant's tiers endpoint until a snapshot is
// live.
func (h *fleetHarness) waitTenantServing(t *testing.T, id string) {
	t.Helper()
	base := "http://" + h.d.httpAddr()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var tr struct {
			Epoch int64 `json:"epoch"`
		}
		if code := getJSON(t, base+"/v1/t/"+id+"/tiers", &tr); code == http.StatusOK && tr.Epoch >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s never published a snapshot", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fleetConfig is the in-process harness base config: fast re-price
// ticks, one scheduler worker (so re-prices across tenants genuinely
// contend), and a staleness policy loose enough that only real
// starvation would trip it.
func fleetConfig(traceDir, specPath string) config {
	return config{
		listen: "127.0.0.1:0", trace: traceDir, tenantsFile: specPath,
		model: "ced", alpha: 1.1, s0: 0.2, theta: 0.2,
		strategy: "profit-weighted", tiers: 3,
		window: 4 * time.Hour, slot: time.Hour,
		reprice: 25 * time.Millisecond, maxSnapAge: time.Minute,
		schedWorkers: 1, drainGrace: 2 * time.Second,
	}
}

// quoteP99 measures the quote-path p99 over n sequential requests.
func quoteP99(t *testing.T, url string, n int) time.Duration {
	t.Helper()
	durations := make([]time.Duration, 0, n)
	for i := 0; i < n+20; i++ {
		start := time.Now()
		resp, err := http.Get(url)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quote status %d", resp.StatusCode)
		}
		if i >= 20 { // warm-up: connection setup and first-hit paths
			durations = append(durations, elapsed)
		}
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	return durations[len(durations)*99/100]
}

// TestTenantWFQFairness bounds cross-tenant interference on the serving
// path: a re-price-heavy tenant sharing the process must not push a
// light tenant's quote p99 past twice its solo baseline (with a small
// absolute floor so scheduler jitter on a sub-millisecond baseline
// cannot fail the test on noise).
func TestTenantWFQFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement")
	}
	if raceEnabled {
		t.Skip("latency bounds are not meaningful under the race detector")
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
	grams := traceDatagrams(t, streams)
	src := ds.Meta[0].SrcIP
	dst := ds.Meta[0].DstPrefix.Addr().Next()

	run := func(spec string, tenants int) time.Duration {
		specPath := writeSpecFile(t, t.TempDir(), spec)
		h := startFleetHarness(t, fleetConfig(traceDir, specPath))
		defer h.stop()
		for k := 0; k < tenants; k++ {
			h.ingestAs(uint8(k+1), grams)
		}
		h.waitTenantServing(t, "light")
		url := fmt.Sprintf("http://%s/v1/t/light/quote?src=%s&dst=%s", h.d.httpAddr(), src, dst)
		return quoteP99(t, url, 400)
	}

	solo := run(`{"tenants": [{"id": "light", "routers": [1]}]}`, 1)
	contended := run(`{"tenants": [
		{"id": "light", "routers": [1]},
		{"id": "hog", "routers": [2], "weight": 4}
	]}`, 2)

	limit := 2 * solo
	if floor := 5 * time.Millisecond; limit < floor {
		limit = floor
	}
	t.Logf("light tenant quote p99: solo %v, beside hog %v (limit %v)", solo, contended, limit)
	if contended > limit {
		t.Errorf("hog tenant pushed light tenant quote p99 to %v, past the %v bound (solo %v)",
			contended, limit, solo)
	}
}

// brokenResolver fails every endpoint resolution, so the owning
// tenant's re-prices fail with "no aggregate resolved to a usable flow".
type brokenResolver struct{}

func (brokenResolver) Resolve(netip.Addr, netip.Addr) (float64, econ.Region, error) {
	return 0, 0, errors.New("injected resolver outage")
}

// TestTenantIsolation runs the fleet with one tenant's resolver down
// and hammers the healthy tenants' quote paths concurrently (the race
// detector covers the shared routing, scheduling and metrics state):
// the broken tenant must be the only one degraded, and the rate-limited
// tenant's quota must not throttle anyone else.
func TestTenantIsolation(t *testing.T) {
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
	src := ds.Meta[0].SrcIP
	dst := ds.Meta[0].DstPrefix.Addr().Next()

	specPath := writeSpecFile(t, t.TempDir(), `{"tenants": [
		{"id": "net-a", "routers": [1]},
		{"id": "net-b", "routers": [2], "rate_qps": 0.2, "rate_burst": 1},
		{"id": "net-c", "routers": [3]}
	]}`)
	cfg := fleetConfig(traceDir, specPath)
	cfg.wrapTenantResolver = func(id string, rv demandfit.EndpointResolver) demandfit.EndpointResolver {
		if id == "net-c" {
			return brokenResolver{}
		}
		return rv
	}
	h := startFleetHarness(t, cfg)
	for k := 0; k < 3; k++ {
		h.ingestAs(uint8(k+1), grams)
	}
	h.waitTenantServing(t, "net-a")
	h.waitTenantServing(t, "net-b")
	base := "http://" + h.d.httpAddr()
	httpAddr := h.d.httpAddr()

	// The broken tenant records failures and stays unhealthy...
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fails, ok := labeledMetric(t, httpAddr, "tierd_reprice_failures_total", "net-c"); ok && fails >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("net-c never recorded reprice failures")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, _ := get2(t, base+"/v1/t/net-c/healthz"); code == http.StatusOK {
		t.Error("net-c healthz reports 200 while its resolver is down")
	}
	// ...while the healthy tenants keep serving fresh quotes under
	// concurrent load: no 5xx, no staleness bleed, no cross-tenant 429.
	var wg sync.WaitGroup
	var stale, failed, limited int64
	var mu sync.Mutex
	quoteURL := fmt.Sprintf("%s/v1/t/net-a/quote?src=%s&dst=%s", base, src, dst)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Get(quoteURL)
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					continue
				}
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					mu.Lock()
					limited++
					mu.Unlock()
				case resp.StatusCode != http.StatusOK:
					mu.Lock()
					failed++
					mu.Unlock()
				case resp.Header.Get("X-Tierd-Stale") != "":
					mu.Lock()
					stale++
					mu.Unlock()
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if failed > 0 || stale > 0 || limited > 0 {
		t.Errorf("net-a under load beside a failing tenant: %d failed, %d stale, %d rate-limited (want 0/0/0)",
			failed, stale, limited)
	}

	// net-b's quota is its own: burst 1 at 0.2 qps admits the first
	// rapid request and throttles the rest with a Retry-After hint.
	got200, got429 := false, false
	bURL := fmt.Sprintf("%s/v1/t/net-b/quote?src=%s&dst=%s", base, src, dst)
	for i := 0; i < 6; i++ {
		resp, err := http.Get(bURL)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			got200 = true
		case http.StatusTooManyRequests:
			got429 = true
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
				t.Errorf("429 Retry-After = %q, want a whole second >= 1", resp.Header.Get("Retry-After"))
			}
		default:
			t.Errorf("net-b quote status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !got200 || !got429 {
		t.Errorf("net-b burst: got200=%v got429=%v, want both", got200, got429)
	}
	if v, ok := labeledMetric(t, httpAddr, "tierd_quote_rate_limited_total", "net-a"); !ok || v != 0 {
		t.Errorf("net-a rate-limited counter = %v (ok=%v), want 0 — net-b's quota bled across tenants", v, ok)
	}

	// Freshness is per tenant too: net-a's epoch keeps advancing while
	// net-c fails every re-price.
	epochA, _ := labeledMetric(t, httpAddr, "tierd_snapshot_epoch", "net-a")
	deadline = time.Now().Add(30 * time.Second)
	for {
		if e, ok := labeledMetric(t, httpAddr, "tierd_snapshot_epoch", "net-a"); ok && e > epochA {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("net-a epoch stopped advancing beside the failing tenant")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// get2 is a status-only GET (the body is drained and discarded).
func get2(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}
