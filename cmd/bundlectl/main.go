// Command bundlectl is the operator tool: it consumes NetFlow export
// streams — a directory of raw capture files (as written by tracegen, or
// by real collection infrastructure using the same format) and/or a live
// UDP export feed — rebuilds per-destination traffic demands through the
// de-duplicating collector, fits the demand/cost model at the configured
// blended rate, and prints the recommended pricing tiers with their
// profit-maximizing prices.
//
// Usage:
//
//	bundlectl -in /tmp/euisp -tiers 3 -model ced -strategy profit-weighted
//	bundlectl -in /tmp/euisp -udp 127.0.0.1:2055 -for 5m
//
// With -udp, SIGINT/SIGTERM stops the capture gracefully: the listener
// is drained and the tiers are computed from everything received so far
// (partial results are flushed, not discarded).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/report"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// runConfig collects bundlectl's knobs; the flag set in main fills one.
type runConfig struct {
	dir      string
	tiers    int
	model    string
	alpha    float64
	s0       float64
	theta    float64
	strategy string
	truth    string

	udp       string        // UDP NetFlow listen address; empty disables
	listenFor time.Duration // stop UDP capture after this long; 0 = until signal

	// onListen, when set, is invoked with the live UDP listener once it
	// is bound (test hook: learn the ephemeral port and drive traffic).
	onListen func(*netflow.CollectorServer)
	out      io.Writer // defaults to os.Stdout
}

func main() {
	cfg := runConfig{out: os.Stdout}
	flag.StringVar(&cfg.dir, "in", "", "trace directory from tracegen (required)")
	flag.IntVar(&cfg.tiers, "tiers", 3, "number of pricing tiers")
	flag.StringVar(&cfg.model, "model", "ced", "demand model: ced or logit")
	flag.Float64Var(&cfg.alpha, "alpha", 1.1, "price sensitivity α")
	flag.Float64Var(&cfg.s0, "s0", 0.2, "logit no-purchase share")
	flag.Float64Var(&cfg.theta, "theta", 0.2, "linear cost model base fraction θ")
	flag.StringVar(&cfg.strategy, "strategy", "profit-weighted",
		"bundling strategy (optimal, profit-weighted, cost-weighted, demand-weighted, cost division, index division)")
	flag.StringVar(&cfg.truth, "truth", "", "optional ground-truth flows CSV (from tracegen) to verify the recovery against")
	flag.StringVar(&cfg.udp, "udp", "", "also capture live NetFlow over UDP at this address (e.g. 127.0.0.1:2055)")
	flag.DurationVar(&cfg.listenFor, "for", 0, "stop the UDP capture after this duration (0 = until SIGINT/SIGTERM)")
	flag.Parse()
	if cfg.dir == "" {
		fmt.Fprintln(os.Stderr, "bundlectl: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bundlectl:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg runConfig) error {
	out := cfg.out
	if out == nil {
		out = os.Stdout
	}
	meta, geo, err := traces.ReadDir(cfg.dir)
	if err != nil {
		return err
	}

	// Collect every router stream through the deduplicating collector.
	// Dedup and the accumulated aggregates are order-insensitive, so the
	// fitted market does not depend on the order the files are read in.
	collector := stream.NewCollector(traces.AggregateKey)
	streams, err := filepath.Glob(filepath.Join(cfg.dir, "*.nf5"))
	if err != nil {
		return err
	}
	if len(streams) == 0 && cfg.udp == "" {
		return fmt.Errorf("no .nf5 streams in %s (and no -udp listener)", cfg.dir)
	}
	for _, path := range streams {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = netflow.Feed(collector, bufio.NewReader(f))
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if cfg.udp != "" {
		if err := captureUDP(ctx, cfg, collector, out); err != nil {
			return err
		}
	}
	records, dups, dropped, _ := collector.Stats()

	flows, skipped, err := demandfit.BuildFlows(collector.Aggregates(), demandfit.NewResolver(meta.Dataset, geo), meta.DurationSec)
	if err != nil {
		return err
	}

	dm, err := econ.ByName(cfg.model, cfg.alpha, cfg.s0)
	if err != nil {
		return err
	}
	strategy, err := bundling.ByName(cfg.strategy)
	if err != nil {
		return err
	}
	market, err := core.NewMarket(flows, dm, cost.Linear{Theta: cfg.theta}, meta.P0)
	if err != nil {
		return err
	}
	outcome, err := market.Run(strategy, cfg.tiers)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "collected %d records (%d cross-router duplicates, %d unkeyed, %d unresolved) → %d flows\n",
		records, dups, dropped, skipped, len(flows))
	if cfg.truth != "" {
		if err := verifyRecovery(out, flows, cfg.truth); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "market: model=%s blended=$%.2f γ=%.4g originalπ=%.0f maxπ=%.0f\n\n",
		dm.Name(), meta.P0, market.Gamma, market.OriginalProfit, market.MaxProfit)

	t := report.New(fmt.Sprintf("Recommended tiers (%s, %d bundles)", strategy.Name(), cfg.tiers),
		"tier", "price $/Mbps/mo", "flows", "demand Mbps", "mean distance mi")
	for b, block := range outcome.Partition {
		var demand, wdist float64
		for _, i := range block {
			demand += flows[i].Demand
			wdist += flows[i].Demand * flows[i].Distance
		}
		t.MustAddRow(report.I(b), report.F(outcome.Prices[b]), report.I(len(block)),
			report.F1(demand), report.F1(wdist/demand))
	}
	t.AddNote("profit $%.0f — capture %.1f%% of the tiered-pricing headroom",
		outcome.Profit, outcome.Capture*100)
	return t.WriteASCII(out)
}

// captureUDP listens for live NetFlow exports and feeds them into the
// collector until ctx is cancelled (SIGINT/SIGTERM) or -for elapses,
// then drains the listener so every received datagram is accounted
// before pricing runs. This is the same stop-ingest-then-price drain
// tierd performs on shutdown.
func captureUDP(ctx context.Context, cfg runConfig, collector *stream.Window, out io.Writer) error {
	srv, err := netflow.NewCollectorServer(cfg.udp, collector)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "listening for NetFlow on udp %s", srv.Addr())
	if cfg.listenFor > 0 {
		fmt.Fprintf(out, " for %v", cfg.listenFor)
	}
	fmt.Fprintln(out, " — SIGINT/SIGTERM stops the capture and prices what arrived")
	if cfg.onListen != nil {
		cfg.onListen(srv)
	}
	waitCtx := ctx
	if cfg.listenFor > 0 {
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithTimeout(ctx, cfg.listenFor)
		defer cancel()
	}
	<-waitCtx.Done()
	srv.Close() // blocks until the receive loop has exited
	packets, bad := srv.Stats()
	fmt.Fprintf(out, "udp capture stopped: %d packets (%d bad)\n", packets, bad)
	return nil
}

// verifyRecovery compares the pipeline-recovered flows against the
// generator's ground truth by matching sorted (distance, demand)
// signatures and reporting the worst relative demand error.
func verifyRecovery(out io.Writer, flows []econ.Flow, truthPath string) error {
	f, err := os.Open(truthPath)
	if err != nil {
		return err
	}
	truth, err := traces.ReadFlowsCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(truth) != len(flows) {
		return fmt.Errorf("recovery check: %d flows recovered, truth has %d", len(flows), len(truth))
	}
	type sig struct{ d, q float64 }
	a := make([]sig, len(flows))
	b := make([]sig, len(truth))
	for i := range flows {
		a[i] = sig{flows[i].Distance, flows[i].Demand}
		b[i] = sig{truth[i].Distance, truth[i].Demand}
	}
	less := func(s []sig) func(int, int) bool {
		return func(i, j int) bool {
			if s[i].d != s[j].d {
				return s[i].d < s[j].d
			}
			return s[i].q < s[j].q
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	var worst float64
	for i := range a {
		if b[i].q > 0 {
			if rel := math.Abs(a[i].q-b[i].q) / b[i].q; rel > worst {
				worst = rel
			}
		}
	}
	fmt.Fprintf(out, "recovery check vs %s: %d/%d flows matched, worst demand error %.4f%%\n",
		truthPath, len(a), len(b), worst*100)
	if worst > 0.02 {
		return fmt.Errorf("recovery check: worst demand error %.2f%% exceeds 2%%", worst*100)
	}
	return nil
}
