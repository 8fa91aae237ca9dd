package e2e

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// marker is one never-seen key on its way through a tenant's pricing
// pipeline: sent in a datagram at sentAt, then polled until a quote for
// it comes from the window.
type marker struct {
	tenant   int
	idx      int
	sentAt   time.Time
	nextPoll time.Time
}

const (
	markerPoll  = 5 * time.Millisecond
	markerDrain = 3 * time.Second // how long the last markers may take
	scrapeEvery = 250 * time.Millisecond
)

// Mixed is the online_mixed stage: a two-tenant fleet — big prices
// 20 000 aggregates, small 200 — re-pricing back to back while one
// goroutine sends ingest open loop at mixedPerSec datagrams/s over
// existing keys plus, every markerEvery per tenant, a marker datagram,
// and one keep-alive connection carries mixedPerSec quotes/s open loop,
// timed from when each was due, and the polls that date each marker's
// first quote from the window.
func Mixed(ctx context.Context, env Env, in *Inputs, measure time.Duration) (Out, error) {
	o := newOut()
	ctx, cancel := context.WithTimeout(ctx, QuoteWarm+measure+markerDrain+30*time.Second)
	defer cancel()
	d, err := StartTierd(ctx, env, "mixed.log", in.PreloadFleet,
		"-tenants", in.Tenants, "-udp", "127.0.0.1:0", "-stdin", "-reprice", "20ms",
		// Every epoch's table stays fetchable for the quote check, and a
		// 100 ms re-price does not count as a stale snapshot.
		"-history-ring", "8192", "-max-snapshot-age", "10s", "-udp-rcvbuf", "8388608")
	if err != nil {
		return o, err
	}
	defer d.Kill()
	conn, err := dialUDP(d.UDP)
	if err != nil {
		return o, err
	}
	defer conn.Close()

	tenants := []struct {
		id      string
		engine  uint8
		markers [][]byte
		quotes  *quoter
		polls   *quoter
		reqs    []*http.Request
		pollReq []*http.Request
	}{{id: "big", engine: engineBig}, {id: "small", engine: engineSmall}}
	client := newClient()
	for t := range tenants {
		tn := &tenants[t]
		plan := in.Big
		if tn.id == "small" {
			plan = in.Small
		}
		url := d.HTTP + "/v1/t/" + tn.id + "/quote"
		if tn.reqs, err = quoteRequests(url, plan.QuoteMix(2048, 1, 0)); err != nil {
			return o, err
		}
		for i, mk := range plan.Markers {
			tn.markers = append(tn.markers, plan.MarkerDatagram(i, tn.engine))
			req, err := http.NewRequest(http.MethodGet, url+"?src="+mk.Src.String()+"&dst="+mk.Dst.String(), nil)
			if err != nil {
				return o, err
			}
			tn.pollReq = append(tn.pollReq, req)
		}
		tn.quotes, tn.polls = newQuoter(client), newQuoter(client)
		// The fleet is ready once each tenant quotes a preloaded key.
		ready := newQuoter(client)
		if err := waitFor(ctx, tn.id+"'s first snapshot", func() bool {
			return ready.do(tn.reqs[0], "poll", time.Now(), -1) == "window"
		}); err != nil {
			return o, err
		}
	}
	// Re-prices run while stdin is still being read: measure nothing
	// until each tenant's snapshot prices its whole preload.
	var first map[string]float64
	if err := waitFor(ctx, "snapshots of the whole preload", func() bool {
		first, err = scrape(client, d.HTTP)
		return err == nil &&
			int(first[`tierd_snapshot_flows{tenant="big"}`]) == len(in.Big.Keys) &&
			int(first[`tierd_snapshot_flows{tenant="small"}`]) == len(in.Small.Keys)
	}); err != nil {
		return o, err
	}

	start := time.Now()
	measureStart := start.Add(QuoteWarm)
	end := measureStart.Add(measure)
	sent := make(chan marker, 8) // a marker every 25 ms, drained every millisecond

	// Sender one: the UDP socket.
	udp := &sender{conn: conn}
	udpDone := make(chan struct{})
	go func() {
		defer close(udpDone)
		defer close(sent)
		// Tenants take turns: with two, one marker every 25 ms.
		every := int(markerEvery.Seconds() * mixedPerSec)
		step := every / len(tenants)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * time.Second / mixedPerSec)
			if !due.Before(end) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			udp.sentAt(due)
			write := func(dgram []byte) {
				if _, err := conn.Write(dgram); err != nil {
					udp.failed++
				}
				udp.sent.Add(1)
			}
			write(in.Mixed.Datagrams[i%len(in.Mixed.Datagrams)])
			// The last markers get markerEvery·6 of the span to land in.
			if i%step == 0 && due.Before(end.Add(-6*markerEvery)) {
				t, k := i/step%len(tenants), i/every
				write(tenants[t].markers[k])
				sent <- marker{tenant: t, idx: k, sentAt: time.Now()}
			}
		}
	}()

	// Sender two: the HTTP connection.
	var pending []marker
	lags := make([][]sample, len(tenants)) // at = when the marker was sent, lat = its lag
	var schedWaitMs []float64
	nextScrape := measureStart
	markersSent, sending := 0, true
	takeMarkers := func() { // whatever the UDP sender has announced so far
		for sending {
			select {
			case mk, ok := <-sent:
				if !ok {
					sending = false
					return
				}
				mk.nextPoll = mk.sentAt.Add(markerPoll)
				pending = append(pending, mk)
				markersSent++
			default:
				return
			}
		}
	}
	for j := 0; ; {
		takeMarkers()
		quoteDue := start.Add(time.Duration(j) * time.Second / mixedPerSec)
		now := time.Now()
		if !quoteDue.Before(end) {
			if (!sending && len(pending) == 0) || now.After(end.Add(markerDrain)) {
				break
			}
			quoteDue = now.Add(time.Hour) // only polls are left
		}
		next, poll := quoteDue, -1
		for p := range pending {
			if pending[p].nextPoll.Before(next) {
				next, poll = pending[p].nextPoll, p
			}
		}
		if wait := next.Sub(now); wait > 0 {
			time.Sleep(min(wait, time.Millisecond))
			continue
		}
		switch {
		case poll >= 0:
			mk := &pending[poll]
			tn := &tenants[mk.tenant]
			if tn.polls.do(tn.pollReq[mk.idx], "poll", now, -1) == "window" {
				lags[mk.tenant] = append(lags[mk.tenant], sample{mk.sentAt.Sub(measureStart), time.Since(mk.sentAt)})
				pending = append(pending[:poll], pending[poll+1:]...)
			} else {
				mk.nextPoll = time.Now().Add(markerPoll)
			}
		case !now.Before(nextScrape):
			nextScrape = nextScrape.Add(scrapeEvery)
			if m, err := scrape(client, d.HTTP); err == nil {
				schedWaitMs = append(schedWaitMs, m[`tierd_sched_tenant_last_wait_seconds{tenant="small"}`]*1e3)
			}
		default:
			tn := &tenants[j%len(tenants)]
			k := j / len(tenants) % len(tn.reqs)
			tn.quotes.do(tn.reqs[k], "window", quoteDue, quoteDue.Sub(measureStart))
			j++
		}
	}
	<-udpDone
	last, err := scrape(client, d.HTTP)
	if err != nil {
		return o, err
	}

	o.Attempted += int(udp.sent.Load())
	o.Failed += udp.failed + len(pending)
	if drops := int(last["tierd_ingest_socket_drops_total"]); drops != 0 {
		o.Stalled = fmt.Sprintf("online_mixed: the socket dropped %d datagrams at %d/s", drops, mixedPerSec)
		o.StalledOps = drops
	}
	if len(pending) > 0 {
		o.problemf("online_mixed: %d of %d markers were never quoted from the window (first: tenant %s marker %d)",
			len(pending), markersSent, tenants[pending[0].tenant].id, pending[0].idx)
	}
	var streams [][]sample
	for t := range tenants {
		tn := &tenants[t]
		streams = append(streams, tn.quotes.samples)
		for _, q := range []*quoter{tn.quotes, tn.polls} {
			o.Attempted += len(q.samples) + q.failed
			o.Failed += q.failed
			if q.firstProblem != "" {
				o.problemf("online_mixed: %s", q.firstProblem)
			}
		}
		checkPriced(&o, client, d.HTTP+"/v1/t/"+tn.id+"/history", tn.quotes.seen)
	}
	_, p50us, p99us := bySlice(measure, streams...)
	freshBig, p95Big := lagStats(measure, lags[0])
	freshSmall, _ := lagStats(measure, lags[1])
	if len(p50us) == 0 || len(freshBig) == 0 || len(freshSmall) == 0 {
		return o, fmt.Errorf("online_mixed: %d quote slices, %d and %d markers quoted in %v",
			len(p50us), len(lags[0]), len(lags[1]), measure)
	}
	o.Series["mixed_quote_p50_us"] = p50us
	o.Series["fresh_p50_ms"] = freshBig
	o.Series["fresh_small_p50_ms"] = freshSmall
	o.Layer["mixed_quote_p99_us"] = p99us
	o.Layer["fresh_p95_ms"] = p95Big
	o.Layer["tenant.sched_wait_p50_ms.small"] = rank(schedWaitMs, 0.5)
	delta := func(name string) float64 { return last[name] - first[name] }
	o.Layer["tierd.reprices_total.big"] = delta(`tierd_reprices_total{tenant="big"}`)
	// tierd's re-price histogram has 50, 100 and 500 ms buckets, too
	// coarse for a median: this is the mean of the stage's re-prices.
	o.Layer["tierd.reprice_mean_ms.big"] = delta(`tierd_reprice_seconds_sum{tenant="big"}`) /
		delta(`tierd_reprice_seconds_count{tenant="big"}`) * 1e3
	o.Layer["gen.max_late_ms"] = udp.maxLate.Seconds() * 1e3
	udp.ranLate(&o, "online_mixed")
	return o, nil
}

// freshSlice is the length of one slice of marker lags: twenty markers a
// tenant. A lag is the wait for the re-price in flight plus the one that
// picks the marker up, so it is spread over 1–2 re-price times by
// construction, and a slice of fewer markers would mostly report which
// part of that spread it drew.
const freshSlice = time.Second

// lagStats cuts the markers sent inside the measured span into whole
// slices and returns each slice's median lag in milliseconds, plus the
// p95 over all of them.
func lagStats(span time.Duration, lags []sample) (p50ms []float64, p95ms float64) {
	slices := make([][]float64, int(span/freshSlice))
	var all []float64
	for _, l := range lags {
		if l.at < 0 {
			continue
		}
		ms := l.lat.Seconds() * 1e3
		all = append(all, ms)
		if k := int(l.at / freshSlice); k < len(slices) {
			slices[k] = append(slices[k], ms)
		}
	}
	for _, sl := range slices {
		if len(sl) > 0 {
			p50ms = append(p50ms, rank(sl, 0.5))
		}
	}
	return p50ms, rank(all, 0.95)
}
