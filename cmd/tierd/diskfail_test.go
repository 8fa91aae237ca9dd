package main

import (
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/traces"
)

// TestTierdFailingDisk pins the policy under a disk that refuses writes,
// on a real tierd: every failed WAL append and checkpoint lands in
// tierd_durability_errors_total, stderr gets the first failure and then
// at most one summary per checkpoint interval rather than a line per
// datagram, ingest and quoting carry on from memory, and the next good
// checkpoint is taken as soon as the disk lets it. No seam is needed:
// the first segment's name is pre-created as a symlink to /dev/full, so
// every append returns ENOSPC, and the checkpoint directory is swapped
// for a plain file and back.
func TestTierdFailingDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real process")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here:", err)
	}
	ds, err := traces.EUISP(7)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	dataDir := filepath.Join(tmp, "data")
	walDir, ckptDir := filepath.Join(dataDir, "wal"), filepath.Join(dataDir, "checkpoint")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", filepath.Join(walDir, "wal-0000000000000001.log")); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(tmp, "tierd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tierd: %v\n%s", err, out)
	}

	const interval = 100 * time.Millisecond
	logPath := filepath.Join(tmp, "stderr")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd := exec.Command(bin, "-trace", writeTraceDir(t, ds, len(streams)), "-listen", "127.0.0.1:0", "-udp", "127.0.0.1:0",
		"-data-dir", dataDir, "-reprice", "200ms", "-window", "4h", "-slot", "1h", "-checkpoint-interval", interval.String())
	cmd.Stderr = logFile
	started := time.Now()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	stderrLines := func() []string {
		b, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSpace(string(b)), "\n")
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stderr:\n%s", what, strings.Join(stderrLines(), "\n"))
			}
		}
	}
	var httpAddr, udpAddr string
	waitFor("the serving line", func() bool {
		for _, line := range stderrLines() {
			if rest, ok := strings.CutPrefix(line, "tierd: serving http://"); ok {
				httpAddr, udpAddr, _ = strings.Cut(rest, ", ingesting udp ")
				return true
			}
		}
		return false
	})
	metric := func(name string) float64 {
		v, _ := metricValue(t, httpAddr, name)
		return v
	}

	// Every datagram's append fails; every datagram is still ingested,
	// priced and quoted, and checkpoints (their directory is healthy)
	// keep covering the window.
	sent := replayUDP(t, udpAddr, streams)
	waitFor("ingest and a re-price from memory", func() bool {
		return metric("tierd_ingest_records_total") > 0 && metric("tierd_snapshot_epoch") >= 1 &&
			metric("tierd_durability_errors_total") >= metric("tierd_ingest_packets_total") &&
			metric("tierd_checkpoints_total") >= 1
	})
	if resp, err := http.Get("http://" + httpAddr + "/v1/tiers"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/tiers with a full WAL disk: %v %v", resp, err)
	}
	if got := metric("tierd_wal_entries_total"); got != 0 {
		t.Fatalf("%v WAL entries went to /dev/full", got)
	}
	appendFailures := metric("tierd_durability_errors_total")

	// Checkpoint failures count too, one per interval.
	waitFor("the checkpoint directory to become a file", func() bool {
		os.RemoveAll(ckptDir) // the running loop may re-create it; try again
		return os.WriteFile(ckptDir, nil, 0o644) == nil
	})
	waitFor("three failed checkpoints", func() bool {
		return metric("tierd_durability_errors_total") >= appendFailures+3
	})
	// The disk comes back: the next interval's checkpoint succeeds.
	ckpts := metric("tierd_checkpoints_total")
	if err := os.Remove(ckptDir); err != nil {
		t.Fatal(err)
	}
	waitFor("a checkpoint once the directory is usable again", func() bool {
		return metric("tierd_checkpoints_total") > ckpts
	})
	failures := metric("tierd_durability_errors_total")

	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
	intervals := int(time.Since(started)/interval) + 1

	var reports []string
	for _, line := range stderrLines() {
		if strings.Contains(line, "wal append") || strings.Contains(line, "checkpoint:") || strings.Contains(line, "durable writes failed") {
			reports = append(reports, line)
		}
	}
	if len(reports) == 0 || !strings.Contains(reports[0], "wal append") || !strings.Contains(reports[0], "no space left") {
		t.Fatalf("stderr does not open with the first failure: %q", reports)
	}
	if len(reports) < 2 || !strings.Contains(reports[1], "more durable writes failed") {
		t.Fatalf("no summary after the first failure: %q", reports)
	}
	// One line for the first failure, then at most one per checkpoint
	// interval — not one per failed write.
	if len(reports) > 1+intervals || float64(len(reports)) > failures/4 {
		t.Fatalf("%d stderr lines for %v failed writes (%d datagrams sent) over %d intervals:\n%s",
			len(reports), failures, sent, intervals, strings.Join(reports, "\n"))
	}
}

// TestDurabilityErrorsCount: a failed background fsync, a failed
// checkpoint and a failed WAL append each raise
// tierd_durability_errors_total by exactly one, and the first of them,
// the fsync, is the one stderr's first-failure line names. The first WAL
// segment is /dev/null, which takes writes and refuses fsync; the
// checkpoint directory is a plain file for one checkpoint; the last
// append meets a closed log.
func TestDurabilityErrorsCount(t *testing.T) {
	if _, err := os.Stat("/dev/null"); err != nil {
		t.Skip("no /dev/null here:", err)
	}
	ds, err := traces.EUISP(19)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	g := traceDatagrams(t, streams)[0]
	dataDir := t.TempDir()
	walDir, ckptDir := filepath.Join(dataDir, "wal"), filepath.Join(dataDir, "checkpoint")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/null", filepath.Join(walDir, "wal-0000000000000001.log")); err != nil {
		t.Fatal(err)
	}
	restore := captureStderr(t)
	d, err := startDaemon(recoverConfig(writeTraceDir(t, ds, len(streams)), dataDir,
		faultinject.NewClock(time.Unix(1700000000, 0)).Now))
	if err != nil {
		restore()
		t.Fatal(err)
	}
	stop := sync.OnceValue(func() string { d.abort(); return restore() })
	defer stop()
	durable := d.members[0].durable

	errorsTotal := func() float64 {
		t.Helper()
		v, ok := metricValue(t, d.httpAddr(), "tierd_durability_errors_total")
		if !ok {
			t.Fatal("no tierd_durability_errors_total")
		}
		return v
	}
	step := func(what string, fail func(), failed func() bool) {
		t.Helper()
		before := errorsTotal()
		fail()
		for deadline := time.Now().Add(10 * time.Second); !failed(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never failed", what)
			}
		}
		if after := errorsTotal(); after != before+1 {
			t.Fatalf("a failed %s moved tierd_durability_errors_total %v -> %v, want +1", what, before, after)
		}
	}
	step("background fsync", func() { d.sink.Ingest(g.h, g.recs) },
		func() bool { return durable.log.Stats().SyncErrors == 1 })
	if err := os.WriteFile(ckptDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	step("checkpoint", durable.tick, func() bool { return durable.ckptErrs.Load() == 1 })
	step("wal append", func() {
		durable.log.Close() // its own fsync of the dirty tail fails too, and is returned, not counted
		d.sink.Ingest(g.h, g.recs)
	}, func() bool { return durable.appendErrs.Load() == 1 })
	logged := stop()
	for _, line := range strings.Split(logged, "\n") {
		if strings.Contains(line, "still ingesting and quoting from memory") {
			if !strings.Contains(line, "wal fsync") || !strings.Contains(line, "wal-0000000000000001.log") {
				t.Fatalf("the first failure logged is not the fsync that failed first:\n%s", line)
			}
			return
		}
	}
	t.Fatalf("no first-failure line on stderr:\n%s", logged)
}
