package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"tieredpricing/bench/gen"
	"tieredpricing/internal/netflow"
)

// sender is one goroutine pushing pre-encoded datagrams down one UDP
// socket on an open-loop schedule: datagram i is due at start + i/perSec
// whether or not tierd keeps up.
type sender struct {
	conn    *net.UDPConn
	sent    atomic.Int64 // datagrams written so far
	failed  int
	maxLate time.Duration // how far behind its schedule the sender ever ran
	late    int           // sends more than lateLimit behind schedule
}

// lateLimit is how far behind its schedule a send may run before it
// counts against the segment's validity.
const lateLimit = 50 * time.Millisecond

// ranLate reports a generator that could not keep its schedule: more than
// one send in ten left over lateLimit late. One stalled send is this
// box's weather, and gen.max_late_ms reports it.
func (s *sender) ranLate(o *Out, stage string) {
	if sent := int(s.sent.Load()); s.late*10 > sent && o.Stalled == "" {
		o.Stalled = fmt.Sprintf("%s: the generator ran late, %d of %d sends over %v behind schedule (worst %v)",
			stage, s.late, sent, lateLimit, s.maxLate.Round(time.Millisecond))
		o.StalledOps = s.late
	}
}

// sentAt notes one send that was due at due.
func (s *sender) sentAt(due time.Time) {
	late := time.Since(due)
	if late > s.maxLate {
		s.maxLate = late
	}
	if late > lateLimit {
		s.late++
	}
}

// run sends total datagrams, cycling through dgrams. Every pass over the
// corpus is restamped with firstPass + its number, so no record repeats
// one this tierd has seen.
func (s *sender) run(dgrams [][]byte, perSec float64, total int, firstPass uint32) {
	start := time.Now()
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) / perSec * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			// Sleeping for less than the timer can deliver only adds
			// jitter: wake a little late and send what fell due.
			time.Sleep(max(wait, 500*time.Microsecond))
		}
		s.sentAt(due)
		d := dgrams[i%len(dgrams)]
		gen.Restamp(d, firstPass+uint32(i/len(dgrams)))
		if _, err := s.conn.Write(d); err != nil {
			s.failed++
		}
		s.sent.Add(1)
	}
}

// tiersTable is the deterministic part of a /v1/tiers answer and the
// time its snapshot was fitted.
func tiersTable(c *http.Client, base string) (table []byte, fittedAt time.Time, err error) {
	status, body, err := get(c, base+"/v1/tiers")
	if err != nil {
		return nil, time.Time{}, err
	}
	if status != http.StatusOK {
		return nil, time.Time{}, fmt.Errorf("/v1/tiers answered %d", status)
	}
	var t struct {
		FittedAt time.Time       `json:"fitted_at"`
		Table    json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, time.Time{}, err
	}
	return t.Table, t.FittedAt, nil
}

// Ingest is the ingest_udp stage, in three phases on one data directory.
// paced: the exporting routers send the whole Paced corpus open loop at
// pacedPerSec, and tierd's processor time per record and peak memory are
// sampled. recover: kill -9 and restart, recovers times over, timing
// exec to the first healthy answer; the tier table must come back byte
// for byte. overload: the corpus is offered again at overloadPerSec,
// restamped so every record is new, and the rate tierd applies is its
// capacity; what the socket drops there is expected.
func Ingest(ctx context.Context, env Env, in *Inputs, overload time.Duration, recovers int) (Out, error) {
	o := newOut()
	ctx, cancel := context.WithTimeout(ctx, overload+time.Duration(recovers)*5*time.Second+40*time.Second)
	defer cancel()
	dataDir, err := os.MkdirTemp(env.Work, "ingest-data-")
	if err != nil {
		return o, err
	}
	args := []string{"-trace", in.SmallDir, "-udp", "127.0.0.1:0", "-data-dir", dataDir,
		// Ten live slots, like the default geometry, but long enough that
		// none ages out between the table before the kill and after it.
		"-slot", "2s", "-window", "20s", "-reprice", "500ms",
		"-checkpoint-interval", "1h", "-udp-rcvbuf", "8388608"}
	d, err := StartTierd(ctx, env, "ingest.log", "", args...)
	if err != nil {
		return o, err
	}
	defer func() { d.Kill() }()
	probe := newClient()
	conn, err := dialUDP(d.UDP)
	if err != nil {
		return o, err
	}
	defer func() { conn.Close() }() // whichever socket is current

	// paced
	s := &sender{conn: conn}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.run(in.Paced.Datagrams, pacedPerSec, len(in.Paced.Datagrams), 0)
	}()
	var usPerKrec []float64
	var peakRSS int64
	lastCPU, err := procCPU(d.PID())
	if err != nil {
		return o, err
	}
	lastSent := int64(0)
	tick := time.NewTicker(sliceWidth)
	for sending := true; sending; {
		select {
		case <-done:
			sending = false
		case <-tick.C:
		}
		cpu, err := procCPU(d.PID())
		if err != nil {
			return o, err
		}
		if rss, err := procRSS(d.PID()); err == nil && rss > peakRSS {
			peakRSS = rss
		}
		// The last slice is cut short when the sender finishes; one of
		// under half a slice's datagrams is too small to divide by.
		if sent := s.sent.Load(); sent-lastSent >= pacedPerSec*int64(sliceWidth)/int64(2*time.Second) {
			recs := float64(sent-lastSent) * netflow.MaxRecordsPerPacket
			usPerKrec = append(usPerKrec, float64(cpu-lastCPU)/1e3/(recs/1e3))
			lastSent, lastCPU = sent, cpu
		}
	}
	tick.Stop()
	sentDgrams := int(s.sent.Load())
	o.Attempted += sentDgrams
	o.Failed += s.failed
	if s.ranLate(&o, "paced"); o.Stalled != "" {
		return o, nil
	}
	// tierd is a few milliseconds behind the sender. A datagram the
	// socket dropped never arrives, so the wait is bounded and the counts
	// below say what went missing.
	var m map[string]float64
	settle, cancelSettle := context.WithTimeout(ctx, 3*time.Second)
	_ = waitFor(settle, "tierd to apply the paced corpus", func() bool {
		m, err = scrape(probe, d.HTTP)
		return err == nil && int(m["tierd_ingest_records_total"]) >= in.Paced.Records
	})
	cancelSettle()
	if err != nil {
		return o, err
	}
	applied := time.Now()
	if drops := int(m["tierd_ingest_socket_drops_total"]); drops != 0 {
		o.Stalled = fmt.Sprintf("paced: the socket dropped %d of %d datagrams at %d/s", drops, sentDgrams, pacedPerSec)
		o.StalledOps = drops
		return o, nil
	}
	if got := int(m["tierd_ingest_records_total"]); got != in.Paced.Records {
		o.problemf("paced: tierd counts %d records, %d datagrams carried %d", got, sentDgrams, in.Paced.Records)
	}
	if got := int(m["tierd_ingest_duplicates_total"]); got != in.Paced.Duplicates {
		o.problemf("paced: tierd counts %d duplicates, generated %d", got, in.Paced.Duplicates)
	}
	o.Series["ingest_cpu_us_per_krec"] = usPerKrec
	o.Series["ingest_rss_peak_mb"] = []float64{float64(peakRSS) / (1 << 20)}
	o.Layer["netflow.socket_drop_share_paced"] = m["tierd_ingest_socket_drops_total"] / float64(sentDgrams)
	o.Layer["stream.duplicates_total"] = m["tierd_ingest_duplicates_total"]
	o.Layer["wal.bytes_total"] = m["tierd_wal_bytes_total"]
	o.Layer["wal.fsyncs_total"] = m["tierd_wal_fsyncs_total"]
	o.Layer["gen.max_late_ms"] = s.maxLate.Seconds() * 1e3

	// recover
	var before []byte
	if err := waitFor(ctx, "a snapshot of the whole paced corpus", func() bool {
		var fitted time.Time
		before, fitted, err = tiersTable(probe, d.HTTP)
		return err == nil && fitted.After(applied)
	}); err != nil {
		return o, err
	}
	var recoverS []float64
	for i := 0; i < recovers; i++ {
		d.Kill()
		probe.CloseIdleConnections()
		restarted, err := StartTierd(ctx, env, fmt.Sprintf("recover%d.log", i), "", args...)
		if err != nil {
			return o, err
		}
		d = restarted
		if err := waitFor(ctx, "the recovered tierd to be healthy", func() bool {
			status, _, err := get(probe, d.HTTP+"/healthz")
			return err == nil && status == http.StatusOK
		}); err != nil {
			return o, err
		}
		recoverS = append(recoverS, time.Since(d.Started).Seconds())
		o.Attempted++
		after, _, err := tiersTable(probe, d.HTTP)
		if err != nil || !bytes.Equal(before, after) {
			o.Failed++
			o.problemf("recover %d: /v1/tiers table differs from before the kill (%v):\n%s\n%s", i, err, before, after)
		}
	}
	o.Series["recover_s"] = recoverS

	// overload
	conn.Close() // the restarted tierd listens on a new port
	if conn, err = dialUDP(d.UDP); err != nil {
		return o, err
	}
	if m, err = scrape(probe, d.HTTP); err != nil {
		return o, err
	}
	// One rate over the whole phase: a saturated tierd answers a scrape
	// tens of milliseconds after reading the counter, which is noise over
	// a second and a tenth of a 250 ms slice.
	startAt, startRecs, startDrops := time.Now(), m["tierd_ingest_records_total"], m["tierd_ingest_socket_drops_total"]
	startCPU, err := procCPU(d.PID())
	if err != nil {
		return o, err
	}
	s = &sender{conn: conn}
	s.run(in.Paced.Datagrams, overloadPerSec, int(overload.Seconds()*overloadPerSec), 1)
	if m, err = scrape(probe, d.HTTP); err != nil {
		return o, fmt.Errorf("overload: %w", err)
	}
	elapsed := time.Since(startAt)
	endCPU, err := procCPU(d.PID())
	if err != nil {
		return o, err
	}
	krec := (m["tierd_ingest_records_total"] - startRecs) / 1e3
	o.Attempted += int(s.sent.Load())
	o.Failed += s.failed
	o.Series["ingest_capacity_krec_s"] = []float64{krec / elapsed.Seconds()}
	o.Series["ingest_overload_krec_per_cpu_s"] = []float64{krec / (endCPU - startCPU).Seconds()}
	o.Layer["netflow.socket_drop_share_overload"] =
		(m["tierd_ingest_socket_drops_total"] - startDrops) / float64(s.sent.Load())
	return o, nil
}
