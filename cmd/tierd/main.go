// Command tierd is the online pricing daemon (§5's deployment sketch as
// a serving system): it ingests NetFlow export streams continuously —
// over UDP from core routers and/or from stdin — into a sliding window,
// periodically re-fits the demand model and re-prices the tiers over the
// live window, and serves the result over HTTP from atomically-swapped
// immutable snapshots:
//
//	GET /v1/quote?src=IP&dst=IP   the current tier and price for a flow
//	GET /v1/tiers                 the current bundling
//	GET /healthz                  200 once the first snapshot is live
//	GET /metrics                  Prometheus counters and latency histograms
//
// Quickstart (replay a synthetic capture through the daemon):
//
//	tracegen -dataset euisp -out /tmp/euisp -stdout | tierd -trace /tmp/euisp -stdin
//	curl 'localhost:8080/v1/tiers'
//
// SIGINT/SIGTERM shut the daemon down gracefully: ingest is stopped and
// drained, one final re-price covers everything received, and in-flight
// HTTP requests complete.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"tieredpricing/internal/buildinfo"
	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/geoip"
	"tieredpricing/internal/histstore"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/tenant"
	"tieredpricing/internal/traces"
	"tieredpricing/internal/wal"
)

type config struct {
	listen    string
	pprofAddr string
	udp       string
	stdin     bool
	trace     string

	model    string
	alpha    float64
	s0       float64
	theta    float64
	strategy string
	tiers    int
	blended  float64 // override meta blended rate when > 0

	// Durability: empty dataDir runs memory-only (the pre-durability
	// behavior); a data dir enables the WAL + checkpoint subsystem and
	// recover-on-boot.
	dataDir      string
	ckptInterval time.Duration
	walSync      wal.SyncMode

	// Durable tier-table history (outlives checkpoint retention) and
	// pricing-config hot reload.
	historyStore  string        // store DSN or path (empty = ring-only)
	historyRing   int           // in-memory ring entries per engine
	historyRetain time.Duration // store retention by age (0 = keep forever)
	configFile    string        // hot-reloadable pricing config (SIGHUP re-reads)

	window     time.Duration
	slot       time.Duration
	udpRcvbuf  int // SO_RCVBUF request per collector socket (0 = OS default)
	reprice    time.Duration
	demandSec  float64       // demand divisor override; 0 = capture duration from meta
	maxSnapAge time.Duration // staleness threshold; 0 = 4× reprice interval
	drainGrace time.Duration // bound on the shutdown drain (final re-price and HTTP)

	// The fleet: a -tenants spec file names the per-network pricing
	// engines; without one the daemon synthesises a fleet of one from the
	// flags (see cmd/tierd/tenants.go).
	tenantsFile  string
	schedWorkers int // reprice jobs running concurrently across tenants

	// Test hooks, settable only by in-package tests (the chaos e2e):
	// they interpose fault injection between the daemon's components
	// without changing production wiring. Flags never populate these.
	wrapSink     func(netflow.Sink) netflow.Sink
	wrapResolver func(demandfit.EndpointResolver) demandfit.EndpointResolver
	// wrapTenantResolver interposes per tenant; set, it takes
	// wrapResolver's place.
	wrapTenantResolver func(id string, rv demandfit.EndpointResolver) demandfit.EndpointResolver
	now                func() time.Time
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:8080", "HTTP listen address")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "",
		"net/http/pprof listen address on a listener separate from the quote API (e.g. 127.0.0.1:6060; empty disables)")
	flag.StringVar(&cfg.udp, "udp", "", "UDP NetFlow listen address (e.g. 127.0.0.1:2055; empty disables)")
	flag.BoolVar(&cfg.stdin, "stdin", false, "ingest a concatenated NetFlow stream from stdin (tracegen -stdout)")
	flag.StringVar(&cfg.trace, "trace", "", "trace directory with geoip.csv and meta.txt (required)")
	flag.StringVar(&cfg.model, "model", "ced", "demand model: ced or logit")
	flag.Float64Var(&cfg.alpha, "alpha", 1.1, "price sensitivity α")
	flag.Float64Var(&cfg.s0, "s0", 0.2, "logit no-purchase share")
	flag.Float64Var(&cfg.theta, "theta", 0.2, "linear cost model base fraction θ")
	flag.StringVar(&cfg.strategy, "strategy", "profit-weighted", "bundling strategy")
	flag.IntVar(&cfg.tiers, "tiers", 3, "number of pricing tiers")
	flag.Float64Var(&cfg.blended, "blended", 0, "blended rate override $/Mbps/month (default: meta.txt)")
	flag.DurationVar(&cfg.window, "window", 10*time.Minute, "sliding window length")
	flag.DurationVar(&cfg.slot, "slot", time.Minute, "window slot granularity")
	flag.IntVar(&cfg.udpRcvbuf, "udp-rcvbuf", 0,
		"kernel receive buffer (SO_RCVBUF) requested per UDP collector socket in bytes (0 = OS default; kernel drops on overflow surface as tierd_ingest_socket_drops_total)")
	flag.DurationVar(&cfg.reprice, "reprice", 30*time.Second, "re-price interval")
	flag.Float64Var(&cfg.demandSec, "demand-sec", 0,
		"seconds of traffic the window represents when converting octets to Mbps (0 = capture duration from meta.txt)")
	flag.DurationVar(&cfg.maxSnapAge, "max-snapshot-age", 0,
		"snapshot age after which /healthz reports degraded and quotes carry X-Tierd-Stale (0 = 4x the re-price interval)")
	flag.DurationVar(&cfg.drainGrace, "drain-grace", 5*time.Second,
		"bound on each shutdown drain step: the final re-price and the HTTP close each get this long")
	flag.StringVar(&cfg.dataDir, "data-dir", "",
		"durable state directory: WAL + checkpoints, recover-on-boot (empty = memory-only)")
	flag.DurationVar(&cfg.ckptInterval, "checkpoint-interval", time.Minute, "how often to checkpoint the window (needs -data-dir)")
	flag.StringVar(&cfg.historyStore, "history-store", "",
		"durable tier-history store file (e.g. /var/lib/tierd/history.db; a sqlite: prefix from old configs is accepted and ignored; empty = in-memory ring only). One store per process, rows namespaced per tenant")
	flag.IntVar(&cfg.historyRing, "history-ring", defaultHistoryRing,
		"in-memory tier-history ring entries per engine (the cache in front of -history-store, carried in checkpoints)")
	flag.DurationVar(&cfg.historyRetain, "history-retain", 0,
		"drop history-store entries older than this (0 = keep forever; pruning compacts the store)")
	flag.StringVar(&cfg.configFile, "config", "",
		"hot-reloadable pricing config file (JSON); SIGHUP re-reads and swaps it with zero quoting downtime. Present fields override flags; tenant-spec overrides still win")
	flag.StringVar(&cfg.tenantsFile, "tenants", "",
		"tenant spec file (JSON): one pricing engine per entry, each with its own window, repricer, quota and durability namespace (default: one engine, \"default\", from the flags)")
	flag.IntVar(&cfg.schedWorkers, "reprice-workers", 1,
		"re-price jobs running concurrently across tenants (each job still fans out its resolve stage over every CPU)")
	walSyncFlag := flag.String("wal-sync", "batch", "WAL fsync policy: batch (group commit), always, or none")
	showVersion := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *showVersion {
		bi := buildinfo.Get()
		fmt.Printf("tierd %s\n", bi.String())
		return
	}
	var err error
	if cfg.walSync, err = wal.ParseSyncMode(*walSyncFlag); err != nil {
		fmt.Fprintln(os.Stderr, "tierd:", err)
		os.Exit(2)
	}
	if cfg.trace == "" && cfg.tenantsFile == "" {
		fmt.Fprintln(os.Stderr, "tierd: -trace is required")
		flag.Usage()
		os.Exit(2)
	}
	if !cfg.stdin && cfg.udp == "" {
		fmt.Fprintln(os.Stderr, "tierd: need at least one ingest path (-udp and/or -stdin)")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := startDaemon(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tierd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tierd: serving http://%s", d.httpAddr())
	if d.udp != nil {
		fmt.Fprintf(os.Stderr, ", ingesting udp %s", d.udpAddr())
	}
	if cfg.stdin {
		fmt.Fprint(os.Stderr, ", ingesting stdin")
	}
	fmt.Fprintln(os.Stderr)
	if err := d.run(ctx, os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "tierd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "tierd: drained and stopped")
}

// daemon owns the wired-together subsystems of one tierd instance: a
// fleet of pricing engines (one per -tenants entry, or the single
// synthesised member "default" without the flag) behind one ingest
// router, one reprice scheduler and one HTTP server.
type daemon struct {
	cfg     config
	members []*member // spec-file order
	sched   *tenant.Scheduler
	sink    netflow.Sink // the tenant registry, possibly behind a fault-injection wrapper

	// histStore is the shared durable tier-history store (nil without
	// -history-store); reload is the process-wide hot-reload state.
	histStore *histstore.Store
	reload    *reloadState

	udp      *netflow.CollectorServer
	httpSrv  *http.Server
	ln       net.Listener
	pprofSrv *http.Server
	pprofLn  net.Listener
}

// engineSpec is one pricing engine's effective configuration: the
// daemon flags (and -config file) overlaid with the member's spec
// overrides.
type engineSpec struct {
	trace     string
	model     string
	alpha     float64
	s0        float64
	theta     float64
	strategy  string
	tiers     int
	blended   float64
	demandSec float64
}

// engineFromConfig is the base every member overlays: the flags verbatim.
func engineFromConfig(cfg config) engineSpec {
	return engineSpec{
		trace:     cfg.trace,
		model:     cfg.model,
		alpha:     cfg.alpha,
		s0:        cfg.s0,
		theta:     cfg.theta,
		strategy:  cfg.strategy,
		tiers:     cfg.tiers,
		blended:   cfg.blended,
		demandSec: cfg.demandSec,
	}
}

// engineReloader re-derives and swaps one engine's pricing
// configuration from a (possibly file-overlaid) engineSpec — the hot
// reload path. check validates without applying; apply swaps the
// running repricer's configuration in place. Both close over the
// engine's trace metadata and resolver, which a reload never rebuilds:
// a reload re-prices the demand you have under new economics, it does
// not change where the demand comes from.
type engineReloader struct {
	check func(engineSpec) error
	apply func(engineSpec) error
}

// buildEngine loads the trace metadata and builds one window → repricer
// pricing engine plus its hot-reload handle. wrapResolver, when
// non-nil, interposes on the endpoint resolver (fault-injection test
// hook).
func buildEngine(cfg config, es engineSpec,
	wrapResolver func(demandfit.EndpointResolver) demandfit.EndpointResolver) (*stream.Window, *stream.Repricer, *engineReloader, error) {
	if es.trace == "" {
		return nil, nil, nil, errors.New("no trace directory (set -trace or the tenant's \"trace\")")
	}
	meta, err := traces.ReadMetaFile(filepath.Join(es.trace, "meta.txt"))
	if err != nil {
		return nil, nil, nil, err
	}
	geoFile, err := os.Open(filepath.Join(es.trace, "geoip.csv"))
	if err != nil {
		return nil, nil, nil, err
	}
	geo, err := geoip.ReadCSV(geoFile)
	geoFile.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	var rv demandfit.EndpointResolver = demandfit.NewResolver(meta.Dataset, geo)
	if wrapResolver != nil {
		rv = wrapResolver(rv)
	}

	// pricingConfig derives the repricer configuration from a spec: the
	// one code path construction and every later reload go through, so
	// the two can't diverge on defaults or validation.
	pricingConfig := func(es engineSpec) (stream.Config, error) {
		dm, err := econ.ByName(es.model, es.alpha, es.s0)
		if err != nil {
			return stream.Config{}, err
		}
		strategy, err := bundling.ByName(es.strategy)
		if err != nil {
			return stream.Config{}, err
		}
		p0 := meta.P0
		if es.blended > 0 {
			p0 = es.blended
		}
		durationSec := es.demandSec
		if durationSec == 0 {
			// Replaying a capture: the octets in the window represent the
			// capture duration, not the window span.
			durationSec = meta.DurationSec
		}
		return stream.Config{
			Resolver:    rv,
			Demand:      dm,
			Cost:        cost.Linear{Theta: es.theta},
			P0:          p0,
			Strategy:    strategy,
			Tiers:       es.tiers,
			DurationSec: durationSec,
		}, nil
	}

	scfg, err := pricingConfig(es)
	if err != nil {
		return nil, nil, nil, err
	}
	if cfg.slot <= 0 || cfg.window < cfg.slot {
		return nil, nil, nil, fmt.Errorf("window %v must be at least one slot %v", cfg.window, cfg.slot)
	}
	w, err := stream.NewWindow(traces.AggregateKey, cfg.slot, int(cfg.window/cfg.slot))
	if err != nil {
		return nil, nil, nil, err
	}
	if cfg.now != nil {
		w.SetClock(cfg.now)
	}
	scfg.Window = w
	scfg.Now = cfg.now
	rp, err := stream.NewRepricer(scfg)
	if err != nil {
		return nil, nil, nil, err
	}
	rl := &engineReloader{
		check: func(es engineSpec) error {
			c, err := pricingConfig(es)
			if err != nil {
				return err
			}
			return rp.CheckConfig(c)
		},
		apply: func(es engineSpec) error {
			c, err := pricingConfig(es)
			if err != nil {
				return err
			}
			return rp.Reconfigure(c)
		},
	}
	return w, rp, rl, nil
}

// startDaemon builds the fleet — one pricing engine per spec, each
// recovered from its durability namespace and warm-repriced — puts the
// engine-ID router, the WFQ scheduler and the HTTP server around it, and
// starts the listeners. It does not block; call run to serve until
// cancelled. Without -tenants the fleet is the one synthesised member
// "default", whose durable state lives at <data-dir> itself.
func startDaemon(cfg config) (_ *daemon, err error) {
	specs, defaultID := []tenant.Spec{{ID: "default"}}, "default"
	synthesised := cfg.tenantsFile == ""
	if !synthesised {
		if specs, defaultID, err = tenant.LoadSpecFile(cfg.tenantsFile); err != nil {
			return nil, err
		}
	}
	base := engineFromConfig(cfg)
	if cfg.configFile != "" {
		// The boot read of -config is strict: a file the daemon cannot
		// serve under is a refusal to start, not a silent fallback. Later
		// SIGHUP re-reads keep serving on error instead.
		fc, err := loadFileConfig(cfg.configFile)
		if err != nil {
			return nil, fmt.Errorf("-config: %w", err)
		}
		base = applyFileConfig(base, fc)
	}
	maxAge := cfg.maxSnapAge
	if maxAge == 0 {
		// Default policy: a snapshot that has survived four re-price
		// intervals means the loop is stuck, not just slow.
		maxAge = 4 * cfg.reprice
	}

	d := &daemon{cfg: cfg, reload: newReloadState()}
	defer func() {
		if err != nil {
			d.abort()
		}
	}()
	if cfg.historyStore != "" {
		// One store for the whole fleet: rows are namespaced by the
		// tenant column, so tenants share the file and its group commits.
		if d.histStore, err = histstore.Open(cfg.historyStore, histstore.Options{}); err != nil {
			return nil, fmt.Errorf("opening history store: %w", err)
		}
	}
	tenants := make([]*tenant.Tenant, 0, len(specs))
	srvTenants := make([]*server.Tenant, 0, len(specs))
	for _, sp := range specs {
		// A synthesised member keeps the pre-fleet on-disk layout: state
		// at the data dir's root, checkpoints stamped with no tenant.
		dir, stamp := cfg.dataDir, ""
		if !synthesised {
			dir, stamp = tenantDir(cfg.dataDir, sp.ID), sp.ID
		}
		m, err := d.newMember(sp, overlaySpec(base, sp), dir, stamp)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", sp.ID, err)
		}
		tenants = append(tenants, m.tn)
		srvTenants = append(srvTenants, m.serverTenant(maxAge, d.histStore != nil))
	}
	// The registry routes export datagrams to members by engine ID.
	registry, err := tenant.NewRegistry(tenants, defaultID)
	if err != nil {
		return nil, err
	}
	warnOrphanNamespaces(cfg.dataDir, specs)

	// Warm restart: publish each recovered member's snapshot before
	// serving, so a restart resumes quoting where the crash left off.
	for _, m := range d.members {
		if m.durable == nil {
			continue
		}
		if err := m.durable.warmReprice(cfg.drainGrace); err != nil {
			// Serve cold rather than refuse to boot; the periodic loop
			// will publish once the resolver (or window) comes back.
			fmt.Fprintf(os.Stderr, "tierd: tenant %s: %v\n", m.spec.ID, err)
		}
	}

	// The starvation bound: a queued re-price that has waited two
	// intervals dispatches whatever its fair-queue tag says.
	d.sched = tenant.NewScheduler(cfg.schedWorkers, 2*cfg.reprice, cfg.now)
	d.sink = registry
	if cfg.wrapSink != nil {
		// Fault injection wraps outside durability: the WAL records what
		// survived the (simulated) network, exactly what the window saw.
		d.sink = cfg.wrapSink(d.sink)
	}
	srvCfg := server.Config{
		Tenants:       srvTenants,
		DefaultTenant: defaultID,
		Sole:          synthesised,
		Ingest:        d.collectorStats,
		Sched:         func() (tenant.Stats, []tenant.FlowStats) { return d.sched.Stats(), d.sched.FlowStats() },
		Now:           cfg.now,
		Reload:        d.reload.stats,
	}
	if d.histStore != nil {
		srvCfg.HistoryStore = d.histStore.Stats
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		return nil, err
	}
	for _, m := range d.members {
		if m.durable != nil {
			m.durable.start()
		}
	}
	if err := d.startListeners(srv.Handler()); err != nil {
		return nil, err
	}
	return d, nil
}

// abort tears a partially-started daemon down in reverse order of
// construction: listeners first (nothing feeds the sink afterwards),
// then each member's checkpoint loop and WAL, then the history store.
func (d *daemon) abort() {
	d.close()
	for _, m := range d.members {
		if m.durable != nil {
			m.durable.abort()
		}
	}
	if d.histStore != nil {
		d.histStore.Close()
	}
}

// startListeners starts the daemon's UDP collector (feeding d.sink) and
// the HTTP and pprof servers. On failure the caller's abort closes
// whatever is already listening.
func (d *daemon) startListeners(handler http.Handler) error {
	cfg := d.cfg
	var err error
	if cfg.udp != "" {
		// One socket, one reader: more readers only queue on the window's
		// lock (BenchmarkUDPIngestReaders), and a lone socket without
		// SO_REUSEPORT keeps a second daemon off a port this one holds.
		d.udp, err = netflow.NewCollectorServerOpts(cfg.udp, d.sink, netflow.ServerOptions{
			RcvBuf: cfg.udpRcvbuf,
		})
		if err != nil {
			return err
		}
	}
	d.ln, err = net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("http listen: %w", err)
	}
	d.httpSrv = &http.Server{Handler: handler}
	go func() {
		if err := d.httpSrv.Serve(d.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "tierd: http:", err)
		}
	}()
	if cfg.pprofAddr != "" {
		// Profiling gets its own listener so it can stay bound to loopback
		// (and be firewalled independently) while the quote API is exposed.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		d.pprofLn, err = net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		d.pprofSrv = &http.Server{Handler: mux}
		go func() {
			if err := d.pprofSrv.Serve(d.pprofLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "tierd: pprof:", err)
			}
		}()
	}
	return nil
}

// close tears down whichever listeners are up.
func (d *daemon) close() {
	if d.udp != nil {
		d.udp.Close()
	}
	if d.ln != nil {
		d.ln.Close()
	}
}

func (d *daemon) httpAddr() string { return d.ln.Addr().String() }

func (d *daemon) udpAddr() string { return d.udp.Addr() }

// run serves until ctx is cancelled, then drains: ingest stops, the
// scheduler finishes in-flight jobs, every member runs one final
// re-price over everything received, durability closes with a covering
// checkpoint per member, and HTTP completes in-flight requests.
func (d *daemon) run(ctx context.Context, stdin io.Reader) error {
	if d.histStore != nil {
		// Deferred first so it runs last: /v1/history can hit the store
		// until the final in-flight HTTP request completes, and the prune
		// loop must stop before its store disappears.
		defer d.histStore.Close()
	}
	if stop := d.startReloadWatcher(); stop != nil {
		defer stop()
	}
	if stop := d.startPruneLoop(); stop != nil {
		defer stop()
	}
	// The scheduler outlives ctx on purpose: in-flight re-prices finish
	// after ingest has stopped, so it gets its own cancellation.
	schedCtx, schedCancel := context.WithCancel(context.Background())
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		d.sched.Run(schedCtx)
	}()
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		d.tickLoop(ctx)
	}()
	stdinDone := make(chan struct{})
	if d.cfg.stdin {
		go func() {
			defer close(stdinDone)
			d.ingestStdin(ctx, stdin)
		}()
	} else {
		close(stdinDone)
	}

	<-ctx.Done()

	// Drain order: stop ingest, stop scheduling, final re-price per
	// member, close durability, then HTTP.
	if d.udp != nil {
		d.udp.Close() // blocks until the receive loop exits
	}
	<-stdinDone
	<-tickDone
	schedCancel()
	<-schedDone
	grace := d.cfg.drainGrace
	if grace <= 0 {
		grace = 5 * time.Second
	}
	for _, m := range d.members {
		// Bounded so shutdown cannot wedge on a stuck resolve.
		drainCtx, cancel := context.WithTimeout(context.Background(), grace)
		m.repriceOnce(drainCtx)
		cancel()
	}
	for _, m := range d.members {
		if m.durable == nil {
			continue
		}
		// The drain re-price has published; the final checkpoint covers
		// the whole log, so a clean restart replays nothing.
		if err := m.durable.close(); err != nil {
			fmt.Fprintf(os.Stderr, "tierd: tenant %s: durability: %v\n", m.spec.ID, err)
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if d.pprofSrv != nil {
		_ = d.pprofSrv.Shutdown(shutdownCtx)
	}
	return d.httpSrv.Shutdown(shutdownCtx)
}
