package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tieredpricing/bench/gen"
)

// Out is what one stage measured.
type Out struct {
	// Series holds, under each end-to-end metric's BENCHMARK.json name,
	// the metric's value in every slice of the stage; the caller pools
	// the segments of a run and reduces them with Quiet. Layer is what
	// the stage can see of single layers from outside.
	Series map[string][]float64
	Layer  map[string]float64
	// Attempted and Failed count operations: requests, datagrams,
	// markers, tiersim runs.
	Attempted, Failed int
	// Problems are failed correctness checks; any one fails the run.
	Problems []string
	// Stalled says, when not empty, that the segment measured the box and
	// not tierd: the kernel dropped datagrams tierd was too slow to read
	// at a rate it is required to sustain, or the generator fell behind
	// its own schedule; StalledOps is how many. On this box either is a
	// processor the host took away for most of a second, so the caller
	// measures the segment once more; a tierd that cannot keep up drops
	// them again, and the run fails.
	Stalled    string
	StalledOps int
	// Digest is the sha256 of tiersim's output (batch_eval only).
	Digest string
}

func newOut() Out {
	return Out{Series: map[string][]float64{}, Layer: map[string]float64{}}
}

func (o *Out) problemf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// quoteBody is the part of a /v1/quote answer the checks read.
type quoteBody struct {
	Tier   int     `json:"tier"`
	Price  float64 `json:"price_usd_per_mbps_month"`
	Source string  `json:"source"`
	Epoch  int64   `json:"epoch"`
}

// priced is one (epoch, tier, price) a quote claimed; checkPriced looks
// each up in the tier table tierd published for that epoch.
type priced struct {
	epoch int64
	tier  int
	price float64
}

// quoter is one keep-alive connection issuing quote requests and
// checking every answer against what the request must get.
type quoter struct {
	client       *http.Client
	buf          bytes.Buffer
	seen         map[priced]struct{}
	samples      []sample // one per answered request of the measured span
	failed       int
	firstProblem string
}

func newQuoter(c *http.Client) *quoter {
	return &quoter{client: c, seen: map[priced]struct{}{}}
}

func (q *quoter) fail(format string, args ...any) {
	q.failed++
	if q.firstProblem == "" {
		q.firstProblem = fmt.Sprintf(format, args...)
	}
}

// do sends req, timing the answer from start (the due time of an
// open-loop request, the send time of a closed-loop one), and checks it
// against want: "window" or "rib" is a 200 from that source, "miss" a
// 404, "poll" either a 200 or a 404. An answer that passes is recorded
// at offset at of the measured span, unless at is negative (warm-up).
// do reports the answer's source ("" on 404).
func (q *quoter) do(req *http.Request, want string, start time.Time, at time.Duration) string {
	resp, err := q.client.Do(req)
	if err != nil {
		q.fail("%s: %v", req.URL, err)
		return ""
	}
	q.buf.Reset()
	_, err = io.Copy(&q.buf, resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		q.fail("%s: reading body: %v", req.URL, err)
		return ""
	}
	source := ""
	switch {
	case resp.StatusCode == http.StatusNotFound && (want == "miss" || want == "poll"):
	case resp.StatusCode != http.StatusOK || want == "miss":
		q.fail("%s: status %d, want %s: %s", req.URL, resp.StatusCode, want, q.buf.Bytes())
		return ""
	default:
		var body quoteBody
		if err := json.Unmarshal(q.buf.Bytes(), &body); err != nil {
			q.fail("%s: body %q: %v", req.URL, q.buf.Bytes(), err)
			return ""
		}
		if want != "poll" && body.Source != want {
			q.fail("%s: source %q, want %q", req.URL, body.Source, want)
			return ""
		}
		q.seen[priced{body.Epoch, body.Tier, body.Price}] = struct{}{}
		source = body.Source
	}
	if at >= 0 {
		q.samples = append(q.samples, sample{at, elapsed})
	}
	return source
}

// checkPriced fetches the tier-table history at historyURL (/v1/history
// or a tenant's /v1/t/{id}/history) and requires every quoted
// (epoch, tier, price) to appear in the table published at that epoch.
func checkPriced(o *Out, c *http.Client, historyURL string, seen map[priced]struct{}) {
	type tableBody struct {
		Tiers []struct {
			Tier  int     `json:"tier"`
			Price float64 `json:"price_usd_per_mbps_month"`
		} `json:"tiers"`
	}
	type historyBody struct {
		Entries []struct {
			Epoch int64     `json:"epoch"`
			Table tableBody `json:"table"`
		} `json:"entries"`
	}
	published := map[priced]struct{}{}
	lowest := int64(0)
	// The server returns at most 1000 entries, the newest that match;
	// page backwards until the oldest quoted epoch is covered.
	oldest := int64(1 << 62)
	for p := range seen {
		if p.epoch < oldest {
			oldest = p.epoch
		}
	}
	for until := int64(0); ; until = lowest - 1 {
		url := historyURL + "?limit=1000"
		if until > 0 {
			url += fmt.Sprintf("&until=%d", until)
		}
		status, body, err := get(c, url)
		if err != nil || status != http.StatusOK {
			o.problemf("%s: status %d, %v", url, status, err)
			return
		}
		var h historyBody
		if err := json.Unmarshal(body, &h); err != nil {
			o.problemf("%s: %v", url, err)
			return
		}
		if len(h.Entries) == 0 {
			break
		}
		for _, e := range h.Entries {
			for _, t := range e.Table.Tiers {
				published[priced{e.Epoch, t.Tier, t.Price}] = struct{}{}
			}
		}
		lowest = h.Entries[0].Epoch
		if lowest <= oldest || lowest <= 1 {
			break
		}
	}
	bad := 0
	for p := range seen {
		if _, ok := published[p]; !ok {
			if bad == 0 {
				o.problemf("%s: quote claimed epoch %d tier %d price %v, which that epoch's table does not hold",
					historyURL, p.epoch, p.tier, p.price)
			}
			bad++
		}
	}
	o.Failed += bad
}

// quoteRequests pre-builds the GET requests of a mix against a quote URL
// (…/v1/quote or …/v1/t/{id}/quote).
func quoteRequests(quoteURL string, mix []gen.Quote) ([]*http.Request, error) {
	reqs := make([]*http.Request, len(mix))
	for i, m := range mix {
		var err error
		reqs[i], err = http.NewRequest(http.MethodGet, quoteURL+"?src="+m.Src+"&dst="+m.Dst, nil)
		if err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// quoteClients is how many keep-alive connections the quote stage keeps
// busy per processor. Two per processor saturate tierd: with one, both
// sides spend most of a request asleep, and the figure is the host's
// wake-up latency, which moves with the neighbours in both directions
// (bench/README.md has the measurement).
const quoteClients = 2

// Quote is a segment of the quote stage: a single-tenant tierd holding
// the small plan, no ingest, and a closed loop of quoteClients·env.Procs
// keep-alive clients (closed because a provisioning or billing caller
// waits for its answer before it asks again).
func Quote(ctx context.Context, env Env, in *Inputs, measure time.Duration) (Out, error) {
	o := newOut()
	ctx, cancel := context.WithTimeout(ctx, QuoteWarm+measure+20*time.Second)
	defer cancel()
	d, err := StartTierd(ctx, env, "quote.log", in.PreloadSmall,
		"-trace", in.SmallDir, "-stdin", "-reprice", "1s")
	if err != nil {
		return o, err
	}
	defer d.Kill()
	probe := newClient()
	if err := waitFor(ctx, "quote_hot's first snapshot", func() bool {
		status, _, err := get(probe, d.HTTP+"/healthz")
		return err == nil && status == http.StatusOK
	}); err != nil {
		return o, err
	}
	reqs, err := quoteRequests(d.HTTP+"/v1/quote", in.Mix)
	if err != nil {
		return o, err
	}

	clients := make([]*quoter, quoteClients*env.Procs)
	var wg sync.WaitGroup
	var answered atomic.Int64
	warmEnd := time.Now().Add(QuoteWarm)
	end := warmEnd.Add(measure)
	for c := range clients {
		clients[c] = newQuoter(newClient())
		wg.Add(1)
		go func(q *quoter, i int) {
			defer wg.Done()
			for ; ; i += len(clients) {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				q.do(reqs[i%len(reqs)], in.Mix[i%len(reqs)].Want, now, now.Sub(warmEnd))
				answered.Add(1)
			}
		}(clients[c], c)
	}
	// tierd's processor time per answered request, slice by slice.
	var cpuUs []float64
	time.Sleep(time.Until(warmEnd))
	lastCPU, err := procCPU(d.PID())
	if err != nil {
		return o, err
	}
	lastN := answered.Load()
	tick := time.NewTicker(sliceWidth)
	for time.Now().Before(end) {
		<-tick.C
		cpu, err := procCPU(d.PID())
		if err != nil {
			return o, err
		}
		if n := answered.Load(); n > lastN {
			cpuUs = append(cpuUs, float64(cpu-lastCPU)/1e3/float64(n-lastN))
			lastN, lastCPU = n, cpu
		}
	}
	tick.Stop()
	wg.Wait()

	var streams [][]sample
	seen := map[priced]struct{}{}
	for _, q := range clients {
		streams = append(streams, q.samples)
		o.Attempted += len(q.samples) + q.failed
		o.Failed += q.failed
		if q.firstProblem != "" {
			o.problemf("quote_hot: %s", q.firstProblem)
		}
		for p := range q.seen {
			seen[p] = struct{}{}
		}
	}
	checkPriced(&o, probe, d.HTTP+"/v1/history", seen)
	perSec, p50us, p99us := bySlice(measure, streams...)
	if len(perSec) == 0 || len(cpuUs) == 0 {
		return o, fmt.Errorf("quote_hot: no request completed in %v", measure)
	}
	o.Series["quote_cpu_us_per_req"] = cpuUs
	o.Series["quote_rps"] = perSec
	o.Series["quote_p50_us"] = p50us
	o.Layer["quote_p99_us"] = p99us
	return o, nil
}
