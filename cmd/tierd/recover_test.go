package main

// Crash-recovery acceptance tests. TestRecoveryParity is the in-process
// matrix: one daemon ingests a trace with checkpoints taken mid-stream,
// "crashes" (is abandoned without a clean shutdown, optionally with its
// on-disk state damaged the way a crash would), and a second daemon
// recovers from the same data dir. The recovered window must be
// byte-identical — exported state and tier table — to an uninterrupted
// shadow run over exactly the datagrams the durable state holds
// (checkpoint coverage + WAL-tail replay). TestTierdKill9Recovery is
// the out-of-process variant: a real tierd process SIGKILLed at a
// seeded random point, restarted, and diffed against a shadow built by
// replaying the surviving WAL.
//
// The schedule derives from one seed (RECOVER_SEED, default 4242), the
// same contract as the chaos stage: a CI failure replays locally.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/checkpoint"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/histstore"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
	"tieredpricing/internal/wal"
)

func recoverSeed(t *testing.T) int64 {
	s := os.Getenv("RECOVER_SEED")
	if s == "" {
		return 4242
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("RECOVER_SEED %q: %v", s, err)
	}
	return v
}

// datagram is one export packet with the arrival instant it was (or
// will be) ingested at.
type datagram struct {
	ts   time.Time
	h    netflow.Header
	recs []netflow.Record
}

// traceDatagrams decodes every router stream into individual datagrams
// in the deterministic replay order.
func traceDatagrams(t *testing.T, streams map[string][]byte) []datagram {
	t.Helper()
	var out []datagram
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
			cp := make([]netflow.Record, len(recs))
			copy(cp, recs)
			out = append(out, datagram{h: h, recs: cp})
		}
	}
	return out
}

// recoverConfig is the shared daemon config for the parity matrix: a
// frozen clock, hour slots (nothing evicts mid-test), manual
// checkpoints (interval far beyond the test), one large WAL segment.
func recoverConfig(trace, dataDir string, now func() time.Time) config {
	return config{
		listen: "127.0.0.1:0", trace: trace,
		window: 4 * time.Hour, slot: time.Hour, reprice: time.Hour,
		drainGrace: 5 * time.Second,
		dataDir:    dataDir, ckptInterval: time.Hour,
		walSync: wal.SyncBatch,
		now:     now,
	}
}

// shadowTable prices a window the batch way the repricer would under
// tenant.DefaultPricing: same resolver, models and strategy over the
// same aggregates.
func shadowTable(t *testing.T, ds *traces.Dataset, w *stream.Window, now func() time.Time) []byte {
	t.Helper()
	return shadowTableWith(t, ds, w, now, econ.CED{Alpha: 1.1}, 3)
}

// shadowTableWith is shadowTable with another demand model and tier
// count.
func shadowTableWith(t *testing.T, ds *traces.Dataset, w *stream.Window, now func() time.Time, demand econ.Model, tiers int) []byte {
	t.Helper()
	rp, err := stream.NewRepricer(stream.Config{
		Window:      w,
		Resolver:    &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true},
		Demand:      demand,
		Cost:        cost.Linear{Theta: 0.2},
		P0:          ds.P0,
		Strategy:    bundling.ProfitWeighted{},
		Tiers:       tiers,
		DurationSec: ds.DurationSec,
		Workers:     4,
		Now:         now,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	table, err := snap.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// exportJSON serializes a window state for byte comparison.
func exportJSON(t *testing.T, w interface{ Export() stream.WindowState }) []byte {
	t.Helper()
	b, err := json.Marshal(w.Export())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRecoveryParity(t *testing.T) {
	seed := recoverSeed(t)
	for _, fault := range []string{"clean", "torn-tail", "corrupt-tail", "corrupt-ckpt"} {
		t.Run(fault, func(t *testing.T) { runRecoveryParity(t, seed, fault) })
	}
}

func runRecoveryParity(t *testing.T, seed int64, fault string) {
	ds, err := traces.EUISP(seed)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	traceDir := writeTraceDir(t, ds, len(streams))
	dataDir := t.TempDir()
	grams := traceDatagrams(t, streams)
	if len(grams) < 6 {
		t.Fatalf("trace too small: %d datagrams", len(grams))
	}

	clock := faultinject.NewClock(time.Unix(1700000000, 0))
	d, err := startDaemon(recoverConfig(traceDir, dataDir, clock.Now))
	if err != nil {
		t.Fatal(err)
	}

	// Ingest in three phases an hour apart (three window slots), with a
	// checkpoint after each of the first two — the second one taken
	// after a re-price so it carries an epoch and a tier table. Record
	// the arrival timestamp of each datagram and the entry count each
	// checkpoint covers.
	coveredBy := map[wal.Position]int{} // WAL position → entries covered
	third := len(grams) / 3
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			grams[i].ts = clock.Now()
			d.sink.Ingest(grams[i].h, grams[i].recs)
		}
	}
	ingest(0, third)
	if err := d.members[0].durable.checkpoint(); err != nil {
		t.Fatal(err)
	}
	coveredBy[d.members[0].durable.log.Pos()] = third

	clock.Advance(time.Hour)
	ingest(third, 2*third)
	if _, err := d.members[0].repricer.Reprice(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.members[0].durable.checkpoint(); err != nil {
		t.Fatal(err)
	}
	c2pos := d.members[0].durable.log.Pos()
	coveredBy[c2pos] = 2 * third

	clock.Advance(time.Hour)
	ingest(2*third, len(grams))

	// Crash: abandon the daemon without a clean shutdown (no final
	// checkpoint, no WAL close — the on-disk state is whatever the
	// appends left), then damage the survivors per the fault class. The
	// history store is closed so the next daemon is its file's only
	// writer.
	if err := d.members[0].durable.log.Sync(); err != nil {
		t.Fatal(err)
	}
	d.close()
	stored, err := d.histStore.Scan("default", histstore.Query{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.histStore.Close()

	walDir := filepath.Join(dataDir, "wal")
	ckptDir := filepath.Join(dataDir, "checkpoint")
	inj := faultinject.New(seed)
	switch fault {
	case "clean":
	case "torn-tail":
		segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("wal segments: %v %v", segs, err)
		}
		if torn, err := inj.NewSite(1).TearTail(segs[0], c2pos.Offset); err != nil || !torn {
			t.Fatalf("TearTail: %v %v", torn, err)
		}
	case "corrupt-tail":
		segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("wal segments: %v %v", segs, err)
		}
		if hit, err := inj.NewSite(2).CorruptByte(segs[0], c2pos.Offset); err != nil || !hit {
			t.Fatalf("CorruptByte: %v %v", hit, err)
		}
	case "corrupt-ckpt":
		// Damage the newest checkpoint; recovery must fall back to the
		// first one and replay the longer WAL tail.
		ckpts, err := filepath.Glob(filepath.Join(ckptDir, "checkpoint-*.ckpt"))
		if err != nil || len(ckpts) != 2 {
			t.Fatalf("checkpoints: %v %v", ckpts, err)
		}
		if hit, err := inj.NewSite(3).CorruptByte(ckpts[len(ckpts)-1], 0); err != nil || !hit {
			t.Fatalf("CorruptByte: %v %v", hit, err)
		}
	default:
		t.Fatalf("unknown fault %q", fault)
	}

	// The checkpoint recovery will load (after the fault) tells us how
	// many entries its window already contains.
	loaded, _, err := checkpoint.LoadNewest(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil {
		t.Fatal("no loadable checkpoint")
	}
	covered, ok := coveredBy[loaded.WAL]
	if !ok {
		t.Fatalf("recovery would load an unexpected checkpoint position %+v", loaded.WAL)
	}
	if fault == "corrupt-ckpt" && covered != third {
		t.Fatalf("corrupt-ckpt fallback covered %d entries, want %d", covered, third)
	}

	// Restart from the same data dir.
	d2, err := startDaemon(recoverConfig(traceDir, dataDir, clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d2.members[0].durable.log.Close()
		d2.close()
		d2.histStore.Close()
	}()
	applied := covered + int(d2.members[0].durable.recoveryReplayed.Load())
	if applied < covered || applied > len(grams) {
		t.Fatalf("recovery applied %d entries (covered %d, total %d)", applied, covered, len(grams))
	}
	if fault == "clean" && applied != len(grams) {
		t.Fatalf("clean recovery applied %d entries, want all %d", applied, len(grams))
	}

	// Parity: an uninterrupted shadow run over exactly the entries the
	// durable state holds must export the identical window state and
	// price the identical table.
	shadow, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	shadow.SetClock(clock.Now)
	for i := 0; i < applied; i++ {
		shadow.IngestAt(grams[i].ts, grams[i].h, grams[i].recs)
	}
	gotState, wantState := exportJSON(t, d2.members[0].window), exportJSON(t, shadow)
	if !bytes.Equal(gotState, wantState) {
		t.Fatalf("recovered window state diverges from uninterrupted shadow (%d vs %d bytes)", len(gotState), len(wantState))
	}

	snap := d2.members[0].repricer.Current()
	if snap == nil {
		t.Fatal("no snapshot after warm restart")
	}
	gotTable, err := snap.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if wantTable := shadowTable(t, ds, shadow, clock.Now); !bytes.Equal(gotTable, wantTable) {
		t.Fatalf("recovered tier table diverges:\ngot  %s\nwant %s", gotTable, wantTable)
	}

	// Epoch continuity: the warm snapshot continues one past the newer
	// of the checkpoint's epoch and the history store's newest, instead
	// of restarting from 1.
	want := loaded.Epoch
	for _, e := range stored {
		want = max(want, e.Epoch)
	}
	if snap.Epoch != want+1 {
		t.Errorf("warm snapshot epoch %d, want %d (checkpoint %d, store %v)", snap.Epoch, want+1, loaded.Epoch, stored)
	}

	if fault != "clean" {
		return
	}
	// Second cycle (clean only): the recovered daemon keeps appending,
	// checkpoints, crashes again, and a third daemon still reaches
	// parity — recovery is not a one-shot.
	clock.Advance(time.Hour)
	extra := grams[:third]
	base := len(grams)
	all := append(append([]datagram{}, grams...), make([]datagram, len(extra))...)
	for i, g := range extra {
		g.ts = clock.Now()
		all[base+i] = datagram{ts: g.ts, h: g.h, recs: g.recs}
		d2.sink.Ingest(g.h, g.recs)
	}
	if err := d2.members[0].durable.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d2.members[0].durable.log.Sync(); err != nil {
		t.Fatal(err)
	}
	d2.histStore.Close()
	d3, err := startDaemon(recoverConfig(traceDir, dataDir, clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d3.members[0].durable.log.Close()
		d3.close()
		d3.histStore.Close()
	}()
	shadow2, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	shadow2.SetClock(clock.Now)
	for _, g := range all {
		shadow2.IngestAt(g.ts, g.h, g.recs)
	}
	if !bytes.Equal(exportJSON(t, d3.members[0].window), exportJSON(t, shadow2)) {
		t.Fatal("second recovery cycle diverges from shadow")
	}
}

// TestRecoveryFallbackAcrossSegments: with the newest checkpoint
// corrupt, boot falls back to an older one whose WAL position lies in a
// segment the log has since rotated past. Checkpointing must have kept
// that segment, so the fallback replays the whole tail and the window
// equals an uninterrupted run over every datagram logged.
func TestRecoveryFallbackAcrossSegments(t *testing.T) {
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
	dataDir := t.TempDir()
	trace := traceDatagrams(t, streams)

	clock := faultinject.NewClock(time.Unix(1700000000, 0))
	d, err := startDaemon(recoverConfig(traceDir, dataDir, clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	durable := d.members[0].durable
	// Cycle through the trace (repeats are duplicates to the window but
	// logged all the same) until the WAL's active segment is seg, then
	// checkpoint: once after two full 4 MiB segments, once after four.
	var logged []datagram
	ingestUntil := func(seg uint64) {
		for durable.log.Pos().Segment < seg {
			g := trace[len(logged)%len(trace)]
			g.ts = clock.Now()
			d.sink.Ingest(g.h, g.recs)
			logged = append(logged, g)
		}
	}
	ingestUntil(3)
	if err := durable.checkpoint(); err != nil {
		t.Fatal(err)
	}
	covered := len(logged) // the fallback's coverage
	clock.Advance(time.Hour)
	ingestUntil(5)
	if err := durable.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := durable.log.Sync(); err != nil {
		t.Fatal(err)
	}
	d.close()
	d.histStore.Close()

	ckpts, err := filepath.Glob(filepath.Join(dataDir, "checkpoint", "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("checkpoints: %v %v", ckpts, err)
	}
	if hit, err := faultinject.New(seed).NewSite(3).CorruptByte(ckpts[1], 0); err != nil || !hit {
		t.Fatalf("CorruptByte: %v %v", hit, err)
	}

	d2, err := startDaemon(recoverConfig(traceDir, dataDir, clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d2.members[0].durable.log.Close()
		d2.close()
		d2.histStore.Close()
	}()
	if replayed := int(d2.members[0].durable.recoveryReplayed.Load()); covered+replayed != len(logged) {
		t.Fatalf("fallback checkpoint covers %d entries and replayed %d, want the other %d",
			covered, replayed, len(logged)-covered)
	}
	shadow, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	shadow.SetClock(clock.Now)
	for _, g := range logged {
		shadow.IngestAt(g.ts, g.h, g.recs)
	}
	if !bytes.Equal(exportJSON(t, d2.members[0].window), exportJSON(t, shadow)) {
		t.Fatal("recovered window diverges from the uninterrupted run")
	}
}

// TestRecoveryRetentionAcrossRestart: checkpoints at WAL segments 3, 5
// and 7, a restart, one more checkpoint, then the two newest
// checkpoints bit-flipped. The first checkpoint after the restart must
// not truncate the segments the older files on disk replay from, so boot
// falls back to the one at segment 5, replays the whole tail and
// recovers the window of the uninterrupted run. After every checkpoint,
// every checkpoint on disk must replay to the end of the log.
func TestRecoveryRetentionAcrossRestart(t *testing.T) {
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
	dataDir := t.TempDir()
	walDir, ckptDir := filepath.Join(dataDir, "wal"), filepath.Join(dataDir, "checkpoint")
	trace := traceDatagrams(t, streams)
	clock := faultinject.NewClock(time.Unix(1700000000, 0))

	boot := func() *daemon {
		t.Helper()
		d, err := startDaemon(recoverConfig(traceDir, dataDir, clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Cycle through the trace (repeats are duplicates to the window but
	// logged all the same) until the WAL's active segment is seg.
	var logged []datagram
	ingestUntil := func(d *daemon, seg uint64) {
		for d.members[0].durable.log.Pos().Segment < seg {
			g := trace[len(logged)%len(trace)]
			g.ts = clock.Now()
			d.sink.Ingest(g.h, g.recs)
			logged = append(logged, g)
		}
	}
	// covers[i] is how many logged entries checkpoint i (1-based, file
	// order) holds.
	covers := []int{0}
	checkpointNow := func(d *daemon) {
		t.Helper()
		durable := d.members[0].durable
		if err := durable.checkpoint(); err != nil {
			t.Fatal(err)
		}
		covers = append(covers, len(logged))
		end := durable.log.Pos()
		files, err := checkpoint.List(ckptDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			st, err := checkpoint.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := wal.Replay(walDir, st.WAL, func(time.Time, netflow.Header, []netflow.Record) error { return nil })
			if err != nil || res.End != end {
				t.Fatalf("%s (wal %+v) replays to %+v, %v; the log ends at %+v",
					filepath.Base(f), st.WAL, res.End, err, end)
			}
		}
		clock.Advance(30 * time.Minute)
	}

	d := boot()
	for _, seg := range []uint64{3, 5, 7} {
		ingestUntil(d, seg)
		checkpointNow(d)
	}
	d.abort() // a crash after the log's last fsync: no covering checkpoint

	d = boot()
	ingestUntil(d, 8)
	checkpointNow(d)
	d.abort()

	files, err := checkpoint.List(ckptDir)
	if err != nil || len(files) != ckptRetain {
		t.Fatalf("checkpoints on disk: %v %v", files, err)
	}
	site := faultinject.New(seed).NewSite(3)
	for _, f := range files[1:] {
		if hit, err := site.CorruptByte(f, 0); err != nil || !hit {
			t.Fatalf("CorruptByte %s: %v %v", f, hit, err)
		}
	}

	d = boot()
	defer d.abort()
	fallback := covers[2] // the oldest file left is the second checkpoint
	if replayed := int(d.members[0].durable.recoveryReplayed.Load()); fallback+replayed != len(logged) {
		t.Fatalf("fallback checkpoint covers %d entries and replayed %d, want the other %d",
			fallback, replayed, len(logged)-fallback)
	}
	shadow, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	shadow.SetClock(clock.Now)
	for _, g := range logged {
		shadow.IngestAt(g.ts, g.h, g.recs)
	}
	if !bytes.Equal(exportJSON(t, d.members[0].window), exportJSON(t, shadow)) {
		t.Fatal("recovered window diverges from the uninterrupted run")
	}
}

// startTierd launches a tierd binary and parses its serving line.
func startTierd(t *testing.T, bin string, args ...string) (*exec.Cmd, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "tierd: serving http://") {
				rest := strings.TrimPrefix(line, "tierd: serving http://")
				httpAddr, udpPart, _ := strings.Cut(rest, ", ingesting udp ")
				select {
				case addrCh <- [2]string{strings.TrimSpace(httpAddr), strings.TrimSpace(udpPart)}:
				default:
				}
			}
		}
	}()
	select {
	case addrs := <-addrCh:
		return cmd, addrs[0], addrs[1]
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("tierd did not report its serving address")
		return nil, "", ""
	}
}

// metricValue scrapes one un-labeled metric from /metrics.
func metricValue(t *testing.T, httpAddr, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err != nil {
				t.Fatalf("parsing %s: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestTierdKill9Recovery is the out-of-process crash test: a real tierd
// with -data-dir is fed a trace over UDP, SIGKILLed at a seeded random
// point after its first checkpoint, and restarted. The restarted
// daemon's /v1/tiers must be byte-identical to a shadow run over the
// WAL's surviving contents — the durable ground truth of what the dead
// process had accepted.
func TestTierdKill9Recovery(t *testing.T) {
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
	tmp := t.TempDir()
	dataDir := filepath.Join(tmp, "data")
	bin := filepath.Join(tmp, "tierd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tierd: %v\n%s", err, out)
	}

	args := []string{
		"-trace", traceDir, "-listen", "127.0.0.1:0", "-udp", "127.0.0.1:0",
		"-data-dir", dataDir, "-reprice", "300ms", "-window", "4h", "-slot", "1h",
		"-checkpoint-interval", "400ms", "-wal-sync", "batch",
	}
	cmd, httpAddr, udpAddr := startTierd(t, bin, args...)
	killed := false
	defer func() {
		if !killed && cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	replayUDP(t, udpAddr, streams)

	// Wait for the ingest to quiesce (the WAL holds what got through),
	// at least one checkpoint, and a published snapshot — then kill -9
	// at a seeded random point.
	deadline := time.Now().Add(30 * time.Second)
	var lastRecords float64
	for {
		recs, ok1 := metricValue(t, httpAddr, "tierd_ingest_records_total")
		ckpts, ok2 := metricValue(t, httpAddr, "tierd_checkpoints_total")
		epoch, ok3 := metricValue(t, httpAddr, "tierd_snapshot_epoch")
		if ok1 && ok2 && ok3 && recs > 0 && recs == lastRecords && ckpts >= 1 && epoch >= 1 {
			break
		}
		lastRecords = recs
		if time.Now().After(deadline) {
			t.Fatalf("daemon never quiesced (records %v, checkpoints %v)", recs, ckpts)
		}
		time.Sleep(200 * time.Millisecond)
	}
	// A second burst right before the kill usually lands entries after
	// the last checkpoint, so the restart exercises WAL-tail replay (the
	// window de-duplicates the repeats; the WAL logs them faithfully).
	replayUDP(t, udpAddr, streams)
	killDelay := time.Duration(uint64(seed)*2654435761%200) * time.Millisecond
	time.Sleep(killDelay)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true

	// Shadow: an uninterrupted run over the WAL's surviving contents.
	shadow, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wal.Replay(filepath.Join(dataDir, "wal"), wal.Position{},
		func(ts time.Time, h netflow.Header, recs []netflow.Record) error {
			shadow.IngestAt(ts, h, recs)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries == 0 {
		t.Fatal("WAL is empty after the kill")
	}
	wantTable := shadowTable(t, ds, shadow, nil)

	// Restart on the same data dir: recovery must publish a snapshot
	// before serving, so the first /v1/tiers already matches.
	cmd2, httpAddr2, _ := startTierd(t, bin, args...)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd2.Process.Kill()
			cmd2.Wait()
		}
	}()

	deadline = time.Now().Add(15 * time.Second)
	var healthResp *http.Response
	for {
		healthResp, err = http.Get("http://" + httpAddr2 + "/healthz")
		if err == nil && healthResp.StatusCode == http.StatusOK {
			break
		}
		if healthResp != nil {
			healthResp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never became healthy")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got := healthResp.Header.Get("X-Tierd-Build"); got == "" {
		t.Error("healthz has no X-Tierd-Build header")
	}
	healthResp.Body.Close()

	var tiersResp struct {
		Table json.RawMessage `json:"table"`
	}
	if code := getJSON(t, "http://"+httpAddr2+"/v1/tiers", &tiersResp); code != http.StatusOK {
		t.Fatalf("/v1/tiers after restart: %d", code)
	}
	if !bytes.Equal([]byte(tiersResp.Table), wantTable) {
		t.Fatalf("restarted /v1/tiers diverges from WAL shadow:\ngot  %s\nwant %s", tiersResp.Table, wantTable)
	}

	if replayed, ok := metricValue(t, httpAddr2, "tierd_recovery_replayed_total"); !ok {
		t.Error("metrics missing tierd_recovery_replayed_total")
	} else if replayed == 0 {
		// A kill between checkpoint and the next append can legitimately
		// leave nothing to replay, but with continuous ingest it should
		// be rare under every pinned seed; flag it for visibility.
		t.Logf("recovery replayed 0 entries (checkpoint covered the whole WAL)")
	}
	var histResp struct {
		Entries []struct {
			Epoch int64           `json:"epoch"`
			Table json.RawMessage `json:"table"`
		} `json:"entries"`
	}
	if code := getJSON(t, "http://"+httpAddr2+"/v1/history", &histResp); code != http.StatusOK {
		t.Fatalf("/v1/history: %d", code)
	}
	if len(histResp.Entries) == 0 {
		t.Error("/v1/history empty after recovery")
	} else if histResp.Entries[0].Epoch != 1 {
		// <data-dir>/history.db kept the first life's rows.
		t.Errorf("/v1/history after recovery starts at epoch %d, want the first life's epoch 1", histResp.Entries[0].Epoch)
	}
	fmt.Fprintf(os.Stderr, "kill9: %d WAL entries survived, killDelay %v, history %d entries\n",
		res.Entries, killDelay, len(histResp.Entries))
}
