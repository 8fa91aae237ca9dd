package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/traces"
)

// writeTraceDir materializes a tracegen-shaped directory; withStreams
// controls whether the .nf5 capture files are included.
func writeTraceDir(t *testing.T, ds *traces.Dataset, streams map[string][]byte, withStreams bool) string {
	t.Helper()
	dir := t.TempDir()
	if withStreams {
		for router, stream := range streams {
			if err := os.WriteFile(filepath.Join(dir, sanitizeName(router)+".nf5"), stream, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	geo, err := os.Create(filepath.Join(dir, "geoip.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Geo.WriteCSV(geo); err != nil {
		t.Fatal(err)
	}
	geo.Close()
	meta, err := os.Create(filepath.Join(dir, "meta.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := traces.WriteMeta(meta, traces.Meta{
		Dataset: ds.Name, Flows: len(ds.Flows), P0: ds.P0,
		DurationSec: ds.DurationSec, Sampling: int(ds.SamplingInterval), Routers: len(streams),
	}); err != nil {
		t.Fatal(err)
	}
	meta.Close()
	return dir
}

func TestVerifyRecovery(t *testing.T) {
	dir := t.TempDir()
	flows := []econ.Flow{
		{ID: "a", Demand: 10, Distance: 5, Region: econ.RegionMetro},
		{ID: "b", Demand: 20, Distance: 50, Region: econ.RegionNational},
	}
	path := filepath.Join(dir, "truth.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := traces.WriteFlowsCSV(f, flows); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Exact recovery passes.
	if err := verifyRecovery(io.Discard, flows, path); err != nil {
		t.Fatalf("exact recovery: %v", err)
	}
	// 1% error passes (within sampling tolerance).
	near := append([]econ.Flow(nil), flows...)
	near[0].Demand *= 1.01
	if err := verifyRecovery(io.Discard, near, path); err != nil {
		t.Fatalf("1%% error should pass: %v", err)
	}
	// 10% error fails.
	far := append([]econ.Flow(nil), flows...)
	far[1].Demand *= 1.10
	if err := verifyRecovery(io.Discard, far, path); err == nil {
		t.Error("10% error should fail")
	}
	// Count mismatch fails.
	if err := verifyRecovery(io.Discard, flows[:1], path); err == nil {
		t.Error("count mismatch should fail")
	}
	// Missing truth file fails.
	if err := verifyRecovery(io.Discard, flows, filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing truth should fail")
	}
}

// TestRunEndToEnd drives the full operator workflow in-process: generate
// a trace directory (as tracegen would) and run bundlectl's pipeline on
// it.
func TestRunEndToEnd(t *testing.T) {
	ds, err := traces.EUISP(5)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	dir := writeTraceDir(t, ds, streams, true)
	truth, err := os.Create(filepath.Join(dir, "truth.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := traces.WriteFlowsCSV(truth, ds.Flows); err != nil {
		t.Fatal(err)
	}
	truth.Close()

	base := runConfig{
		dir: dir, tiers: 3, model: "ced", alpha: 1.1, s0: 0.2,
		theta: 0.2, strategy: "profit-weighted",
		truth: filepath.Join(dir, "truth.csv"), out: io.Discard,
	}
	if err := run(context.Background(), base); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Bad inputs surface as errors, not panics.
	for _, mutate := range []func(*runConfig){
		func(c *runConfig) { c.model = "nope"; c.truth = "" },
		func(c *runConfig) { c.strategy = "nope"; c.truth = "" },
		func(c *runConfig) { c.dir = t.TempDir(); c.truth = "" },
	} {
		cfg := base
		mutate(&cfg)
		if err := run(context.Background(), cfg); err == nil {
			t.Errorf("bad config %+v accepted", cfg)
		}
	}
}

// TestRunUDPGracefulShutdown covers the satellite: live UDP capture,
// interrupted by context cancellation (as SIGINT/SIGTERM would), drains
// the listener and prices the partial capture instead of dying.
func TestRunUDPGracefulShutdown(t *testing.T) {
	ds, err := traces.EUISP(7)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// No .nf5 files: all demand arrives over the wire.
	dir := writeTraceDir(t, ds, streams, false)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	cfg := runConfig{
		dir: dir, tiers: 3, model: "ced", alpha: 1.1,
		theta: 0.2, strategy: "profit-weighted",
		udp: "127.0.0.1:0", out: &buf,
		onListen: func(srv *netflow.CollectorServer) {
			// Replay the capture over UDP, paced so the loopback socket
			// buffer keeps up. Loss is acceptable: the assertion is that a
			// partial capture is flushed and priced, not lossless UDP.
			defer cancel() // deliver the "signal" once the replay is done
			conn, err := net.Dial("udp", srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			sent := 0
			for _, stream := range streams {
				rd := netflow.NewReader(bytes.NewReader(stream))
				for {
					h, recs, err := rd.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
					pkt, err := netflow.EncodePacket(h, recs)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := conn.Write(pkt); err != nil {
						t.Error(err)
						return
					}
					if sent++; sent%64 == 0 {
						time.Sleep(time.Millisecond)
					}
				}
			}
			if err := srv.Drain(sent, 5*time.Second); err != nil {
				t.Log(err) // loss tolerated — partial flush is the point
			}
		},
	}
	if err := run(ctx, cfg); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"listening for NetFlow on udp",
		"udp capture stopped",
		"Recommended tiers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunUDPListenFor covers the -for path: the capture window closes on
// its own without a signal.
func TestRunUDPListenFor(t *testing.T) {
	ds, err := traces.EUISP(9)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Streams on disk supply the demand; the UDP window just opens and
	// closes empty — pricing still runs (partial ≥ files-only).
	dir := writeTraceDir(t, ds, streams, true)
	var buf bytes.Buffer
	cfg := runConfig{
		dir: dir, tiers: 3, model: "ced", alpha: 1.1,
		theta: 0.2, strategy: "profit-weighted",
		udp: "127.0.0.1:0", listenFor: 50 * time.Millisecond, out: &buf,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "Recommended tiers") {
		t.Errorf("no tier table after -for capture:\n%s", buf.String())
	}
}

// sanitizeName mirrors tracegen's filename sanitation for the test
// fixture (router names may contain spaces).
func sanitizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
