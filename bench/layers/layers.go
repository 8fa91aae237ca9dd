package layers

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tieredpricing/bench/gen"
	"tieredpricing/internal/bundling"
	"tieredpricing/internal/checkpoint"
	"tieredpricing/internal/core"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/experiments"
	"tieredpricing/internal/geoip"
	"tieredpricing/internal/histstore"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/pricing"
	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/tenant"
	"tieredpricing/internal/traces"
	"tieredpricing/internal/wal"
)

// run carries one traced run's state.
type run struct {
	t    *Trace
	out  map[string]float64
	reps int
	dir  string // scratch directory for the durable layers
	seed int64
	err  error // the first failure inside a timed closure
}

// check keeps the first error a timed closure ran into; every step
// returns it once its measurements are done.
func (r *run) check(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// Run times every layer and returns the per-layer metrics by name with
// the trace behind them. reps is how often each measurement repeats
// (its quiet decile is reported); dir is scratch space.
func Run(seed int64, reps int, dir string) (map[string]float64, *Trace, error) {
	r := &run{t: NewTrace(), out: map[string]float64{}, reps: reps, dir: dir, seed: seed}
	steps := []struct {
		workload string
		fn       func() error
	}{
		{"ingest_udp", r.ingest},
		{"ingest_udp", r.durable},
		{"online_mixed", func() error { return r.reprice("200", 14, 200, 200, "logit", "profit-weighted", 3) }},
		{"online_mixed", func() error { return r.reprice("20k", 64, 2048, 20000, "ced", "optimal", 4) }},
		{"quote_hot", r.quote},
		{"batch_eval", r.eval},
	}
	for _, s := range steps {
		r.t.workload = s.workload
		if err := s.fn(); err != nil {
			return nil, nil, err
		}
		if r.err != nil {
			return nil, nil, fmt.Errorf("layers: %s: %w", s.workload, r.err)
		}
	}
	// What one span costs the trace itself.
	r.out["trace.overhead_ns_per_span"] = quiet(r.reps, func() float64 {
		start := time.Now()
		const n = 50
		for i := 0; i < n; i++ {
			r.t.span("trace.overhead", 0, 1, func() {})
		}
		return float64(time.Since(start)) / n
	})
	return r.out, r.t, nil
}

// decoded is a corpus decoded back into what the socket reader hands on.
type decoded struct {
	h    netflow.Header
	recs []netflow.Record
}

func decode(c gen.Corpus) ([]decoded, error) {
	out := make([]decoded, len(c.Datagrams))
	for i, d := range c.Datagrams {
		h, recs, err := netflow.DecodePacket(d)
		if err != nil {
			return nil, err
		}
		out[i] = decoded{h, recs}
	}
	return out, nil
}

// ingest times the per-datagram path of ingest_udp: decode, deal, window
// apply (fresh and duplicate records, across ten live slots) and the
// eviction of aged slots.
func (r *run) ingest() error {
	plan, err := gen.NewPlan("bench200", r.seed, 14, 200, 200, 0)
	if err != nil {
		return err
	}
	const dgrams = 2000
	corpus := plan.Traffic(dgrams, 1<<24, 2)
	pkts, err := decode(corpus)
	if err != nil {
		return err
	}
	nrec := float64(corpus.Records)

	buf := make([]netflow.Record, 0, netflow.MaxRecordsPerPacket)
	var decodeAllocs float64
	r.out["netflow.decode_ns_per_dgram"] = quiet(r.reps, func() float64 {
		s := r.t.span("netflow.decode", 0, dgrams, func() {
			for _, d := range corpus.Datagrams {
				if _, _, err := netflow.DecodePacketInto(d, buf); err != nil {
					r.check(err)
				}
			}
		})
		decodeAllocs = float64(s.Allocs) / dgrams
		return s.perCall()
	})
	r.out["netflow.decode_allocs_per_dgram"] = decodeAllocs

	const slots = 10
	newWindow := func() (*stream.ShardedWindow, error) {
		return stream.NewShardedWindow(traces.AggregateKey, time.Second, slots, 1)
	}
	w, err := newWindow()
	if err != nil {
		return err
	}
	r.out["stream.deal_ns_per_dgram"] = quiet(r.reps, func() float64 {
		return r.t.span("stream.deal", 0, dgrams, func() {
			for _, p := range pkts {
				w.Deal(p.recs, func(int, []netflow.Record) {})
			}
		}).perCall()
	})

	// The datagrams arrive spread over all ten slots, so a fresh record
	// is looked up in ten dedup sets before it is filed, as in tierd.
	base := time.Unix(1_700_000_000, 0)
	arrival := func(i int) time.Time {
		return base.Add(time.Duration(i) * slots * time.Second / dgrams)
	}
	var applyAllocs float64
	var fresh, dup []float64
	for rep := 0; rep < r.reps; rep++ {
		if w, err = newWindow(); err != nil {
			return err
		}
		w.SetClock(func() time.Time { return arrival(dgrams - 1) })
		s := r.t.span("stream.apply_fresh", 0, corpus.Records, func() {
			for i, p := range pkts {
				w.IngestAt(arrival(i), p.h, p.recs)
			}
		})
		fresh = append(fresh, s.perCall())
		applyAllocs = float64(s.Allocs) / nrec
		dup = append(dup, r.t.span("stream.apply_dup", 0, corpus.Records, func() {
			for i, p := range pkts {
				w.IngestAt(arrival(i), p.h, p.recs)
			}
		}).perCall())
	}
	r.out["stream.apply_ns_per_rec_fresh"] = quietOf(fresh)
	r.out["stream.apply_ns_per_rec_dup"] = quietOf(dup)
	r.out["stream.apply_allocs_per_rec"] = applyAllocs
	if recs, dups, _, live := w.Stats(); recs != 2*corpus.Records || dups != corpus.Records || live != slots {
		return fmt.Errorf("layers: window holds %d records, %d duplicates, %d slots; applied %d twice over %d",
			recs, dups, live, corpus.Records, slots)
	}

	r.out["stream.evict_ms_per_slot"] = quiet(r.reps, func() float64 {
		full, err := newWindow()
		if err != nil {
			r.check(err)
			return 0
		}
		for i, p := range pkts {
			full.IngestAt(arrival(i), p.h, p.recs)
		}
		// A clock one window later ages every slot out at once.
		full.SetClock(func() time.Time { return arrival(dgrams).Add(slots * time.Second) })
		return r.t.span("stream.evict", 0, slots, func() { full.Stats() }).perCall() / 1e6
	})
	return nil
}

// durable times what recovery and durability are made of: WAL append,
// fsync and replay, checkpoint write and load, window import, and the
// tier-history store.
func (r *run) durable() error {
	plan, err := gen.NewPlan("bench200", r.seed, 14, 200, 200, 0)
	if err != nil {
		return err
	}
	const dgrams = 4000
	corpus := plan.Traffic(dgrams, 1<<24, 2)
	pkts, err := decode(corpus)
	if err != nil {
		return err
	}
	now := time.Now()

	var walDir string
	var fsyncP50 float64
	rep := 0
	r.out["wal.append_ns_per_dgram"] = quiet(r.reps, func() float64 {
		rep++
		walDir = filepath.Join(r.dir, fmt.Sprintf("wal%d", rep))
		log, err := wal.Open(walDir, wal.Options{})
		if err != nil {
			r.check(err)
			return 0
		}
		s := r.t.span("wal.append", 0, dgrams, func() {
			for _, p := range pkts {
				if err := log.Append(now, p.h, p.recs); err != nil {
					r.check(err)
				}
			}
		})
		if err := log.Close(); err != nil {
			r.check(err)
		}
		fsyncP50 = float64(log.Stats().FsyncP50Ns) / 1e3
		return s.perCall()
	})
	r.out["wal.fsync_p50_us"] = fsyncP50

	replaySec := quiet(r.reps, func() float64 {
		w, err := stream.NewShardedWindow(traces.AggregateKey, 2*time.Second, 10, 1)
		if err != nil {
			r.check(err)
			return 0
		}
		w.SetClock(func() time.Time { return now })
		s := r.t.span("wal.replay", 0, corpus.Records, func() {
			res, err := wal.Replay(walDir, wal.Position{}, func(ts time.Time, h netflow.Header, recs []netflow.Record) error {
				w.IngestAt(ts, h, recs)
				return nil
			})
			if err != nil || res.Entries != dgrams {
				r.check(fmt.Errorf("replayed %d of %d entries: %v", res.Entries, dgrams, err))
			}
		})
		return float64(s.End-s.Start) / 1e9
	})
	r.out["wal.replay_krec_s"] = float64(corpus.Records) / 1e3 / replaySec

	// A 20 000-aggregate window, as tenant big checkpoints it.
	big, err := gen.NewPlan("bench20k", r.seed+1, 64, 2048, 20000, 0)
	if err != nil {
		return err
	}
	w, err := stream.NewShardedWindow(traces.AggregateKey, time.Minute, 10, 1)
	if err != nil {
		return err
	}
	pre, err := decode(big.Preload(1, 1))
	if err != nil {
		return err
	}
	for _, p := range pre {
		w.Ingest(p.h, p.recs)
	}
	ckptDir := filepath.Join(r.dir, "checkpoint")
	var ckptBytes float64
	r.out["checkpoint.write_ms_20k"] = quiet(r.reps, func() float64 {
		return r.t.span("checkpoint.write", 0, 1, func() {
			path, err := checkpoint.Write(ckptDir, &checkpoint.State{CreatedAt: now, Epoch: 1, Window: w.Export()})
			if err != nil {
				r.check(err)
			}
			if fi, err := os.Stat(path); err == nil {
				ckptBytes = float64(fi.Size())
			}
		}).perCall() / 1e6
	})
	r.out["checkpoint.bytes_20k"] = ckptBytes
	var loaded *checkpoint.State
	r.out["checkpoint.load_ms_20k"] = quiet(r.reps, func() float64 {
		return r.t.span("checkpoint.load", 0, 1, func() {
			if loaded, _, err = checkpoint.LoadNewest(ckptDir); err != nil || loaded == nil {
				r.check(fmt.Errorf("loading the checkpoint just written: %v", err))
			}
		}).perCall() / 1e6
	})
	r.out["stream.import_ms_20k"] = quiet(r.reps, func() float64 {
		into, err := stream.NewShardedWindow(traces.AggregateKey, time.Minute, 10, 1)
		if err != nil {
			r.check(err)
			return 0
		}
		return r.t.span("stream.import", 0, 1, func() {
			if err := into.Import(loaded.Window); err != nil {
				r.check(err)
			}
		}).perCall() / 1e6
	})

	// The tier-history store at 10 000 rows.
	const rows = 10000
	table := []byte(`{"model":"ced","strategy":"optimal","blended_rate":20,"flows":20000,"profit":1,"tiers":[]}`)
	rep = 0
	var openMs, scanUs []float64
	r.out["histstore.append_us"] = quiet(r.reps, func() float64 {
		rep++
		path := filepath.Join(r.dir, fmt.Sprintf("history%d.db", rep))
		st, err := histstore.Open(path, histstore.Options{})
		if err != nil {
			r.check(err)
			return 0
		}
		s := r.t.span("histstore.append", 0, rows, func() {
			for e := int64(1); e <= rows; e++ {
				if err := st.Append(histstore.Entry{Tenant: "big", Epoch: e, ConfigEpoch: 1, At: now, Table: table}); err != nil {
					r.check(err)
				}
			}
		})
		if err := st.Close(); err != nil {
			r.check(err)
		}
		openMs = append(openMs, r.t.span("histstore.open", 0, 1, func() {
			st, err = histstore.Open(path, histstore.Options{})
		}).perCall()/1e6)
		if err != nil {
			r.check(err)
			return 0
		}
		scanUs = append(scanUs, r.t.span("histstore.scan", 0, 1, func() {
			got, err := st.Scan("big", histstore.Query{Limit: 1000})
			if err != nil || len(got) != 1000 {
				r.check(fmt.Errorf("scanned %d rows: %v", len(got), err))
			}
		}).perCall()/1e3)
		if err := st.Close(); err != nil {
			r.check(err)
		}
		return s.perCall() / 1e3
	})
	r.out["histstore.open_10k_ms"] = quietOf(openMs)
	r.out["histstore.scan_1k_us"] = quietOf(scanUs)
	return nil
}

// reprice times one tenant-sized re-price and its children. The real
// Repricer.Reprice is one span; its children are re-enacted right after
// it, in its order and on its inputs, through the exported functions it
// calls, and name it as their parent. What the children do not cover —
// the quote map, bgp.AnnounceTiered and the RIB install, none of them
// exported on their own — is the re-price's self time.
func (r *run) reprice(size string, sources, dests, keys int, model, strategy string, tiers int) error {
	plan, err := gen.NewPlan("bench"+size, r.seed, sources, dests, keys, 0)
	if err != nil {
		return err
	}
	geo, err := geoip.ReadCSV(bytes.NewReader(plan.GeoIPCSV()))
	if err != nil {
		return err
	}
	w, err := stream.NewShardedWindow(traces.AggregateKey, time.Minute, 10, 1)
	if err != nil {
		return err
	}
	pre, err := decode(plan.Preload(1, 1))
	if err != nil {
		return err
	}
	for _, p := range pre {
		w.Ingest(p.h, p.recs)
	}
	models := map[string]econ.Model{"ced": econ.CED{Alpha: 1.1}, "logit": econ.Logit{Alpha: 1.1, S0: 0.2}}
	strategies := map[string]bundling.Strategy{}
	for _, name := range []string{"optimal", "profit-weighted"} {
		if strategies[name], err = bundling.ByName(name); err != nil {
			return err
		}
	}
	const p0, durationSec = 20.0, 86400.0
	resolver := &demandfit.Resolver{Geo: geo}
	costModel := cost.Linear{Theta: 0.2}
	workers := runtime.NumCPU()
	rp, err := stream.NewRepricer(stream.Config{
		Window: w, Resolver: resolver, Demand: models[model], Cost: costModel, P0: p0,
		Strategy: strategies[strategy], Tiers: tiers, DurationSec: durationSec, Workers: workers,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	ms := func(s Span) float64 { return s.perCall() / 1e6 }

	var whole, aggregate, resolveN, fit, bundle, evaluate []float64
	var snap *stream.Snapshot
	var flows []econ.Flow
	var market *core.Market
	var partition [][]int
	for rep := 0; rep < r.reps; rep++ {
		parent := r.t.span("stream.reprice_"+size, 0, 1, func() {
			if snap, err = rp.Reprice(ctx); err != nil {
				r.check(err)
			}
		})
		var aggs []netflow.Aggregate
		children := []Span{
			r.t.span("stream.aggregates_"+size, parent.ID, 1, func() { aggs = w.Aggregates() }),
			r.t.span("demandfit.resolve_"+size+"_wN", parent.ID, 1, func() {
				if flows, _, err = demandfit.BuildFlowsParallelInto(ctx, nil, aggs, resolver, durationSec, workers); err != nil {
					r.check(err)
				}
			}),
			r.t.span("core.fit_"+size+"_"+model, parent.ID, 1, func() {
				if market, err = core.NewMarket(flows, models[model], costModel, p0); err != nil {
					r.check(err)
				}
			}),
			r.t.span("bundling.bundle_"+size+"_"+strategy, parent.ID, 1, func() {
				if r.err != nil {
					return
				}
				if partition, err = strategies[strategy].Bundle(market.Flows, market.Demand, tiers); err != nil {
					r.check(err)
				}
			}),
			r.t.span("pricing.evaluate_"+size+"_"+model, parent.ID, 1, func() {
				if r.err != nil {
					return
				}
				if _, err = pricing.Evaluate(market.Demand, market.Flows, partition); err != nil {
					r.check(err)
				}
			}),
		}
		if r.err != nil {
			return r.err
		}
		whole = append(whole, ms(parent))
		aggregate = append(aggregate, ms(children[0]))
		resolveN = append(resolveN, ms(children[1]))
		fit = append(fit, ms(children[2]))
		bundle = append(bundle, ms(children[3]))
		evaluate = append(evaluate, ms(children[4]))
	}
	if snap.Table.Flows != keys {
		return fmt.Errorf("layers: the %s re-price priced %d flows of %d", size, snap.Table.Flows, keys)
	}
	r.out["stream.reprice_ms_"+size] = quietOf(whole)
	r.out["stream.aggregates_ms_"+size] = quietOf(aggregate)
	r.out["demandfit.resolve_ms_"+size+"_wN"] = quietOf(resolveN)
	r.out["core.fit_ms_"+size+"_"+model] = quietOf(fit)
	r.out["bundling.bundle_ms_"+size+"_"+strategy] = quietOf(bundle)
	r.out["pricing.evaluate_ms_"+size+"_"+model] = quietOf(evaluate)
	// Self time from the quiet values, not repetition by repetition: a
	// child re-enacted in a noisy moment would otherwise make it negative.
	r.out["stream.snapshot_build_ms_"+size] = r.out["stream.reprice_ms_"+size] -
		r.out["stream.aggregates_ms_"+size] - r.out["demandfit.resolve_ms_"+size+"_wN"] -
		r.out["core.fit_ms_"+size+"_"+model] - r.out["bundling.bundle_ms_"+size+"_"+strategy] -
		r.out["pricing.evaluate_ms_"+size+"_"+model]

	// The variants no tenant of this size runs, timed on their own.
	aggs := w.Aggregates()
	r.out["demandfit.resolve_ms_"+size+"_w1"] = quiet(r.reps, func() float64 {
		return ms(r.t.span("demandfit.resolve_"+size+"_w1", 0, 1, func() {
			if _, _, err := demandfit.BuildFlowsParallelInto(ctx, nil, aggs, resolver, durationSec, 1); err != nil {
				r.check(err)
			}
		}))
	})
	otherModel, otherStrategy := "ced", "optimal"
	if model == "ced" {
		otherModel = "logit"
	}
	if strategy == "optimal" {
		otherStrategy = "profit-weighted"
	}
	var otherMarket *core.Market
	r.out["core.fit_ms_"+size+"_"+otherModel] = quiet(r.reps, func() float64 {
		return ms(r.t.span("core.fit_"+size+"_"+otherModel, 0, 1, func() {
			if otherMarket, err = core.NewMarket(flows, models[otherModel], costModel, p0); err != nil {
				r.check(err)
			}
		}))
	})
	if r.err != nil {
		return r.err
	}
	r.out["bundling.bundle_ms_"+size+"_"+otherStrategy] = quiet(r.reps, func() float64 {
		return ms(r.t.span("bundling.bundle_"+size+"_"+otherStrategy, 0, 1, func() {
			if _, err := strategies[otherStrategy].Bundle(market.Flows, market.Demand, tiers); err != nil {
				r.check(err)
			}
		}))
	})
	r.out["pricing.evaluate_ms_"+size+"_"+otherModel] = quiet(r.reps, func() float64 {
		return ms(r.t.span("pricing.evaluate_"+size+"_"+otherModel, 0, 1, func() {
			if _, err := pricing.Evaluate(otherMarket.Demand, otherMarket.Flows, partition); err != nil {
				r.check(err)
			}
		}))
	})
	if size != "20k" {
		return nil
	}
	// Sized by the database and the table, not by the window.
	addrs := make([]netip.Addr, len(plan.Keys))
	for i, k := range plan.Keys {
		addrs[i] = k.Dst
	}
	r.out["geoip.lookup_ns"] = quiet(r.reps, func() float64 {
		return r.t.span("geoip.lookup", 0, len(addrs), func() {
			for _, a := range addrs {
				if _, ok := geo.Lookup(a); !ok {
					r.check(fmt.Errorf("a planned destination is missing from the plan's own database"))
				}
			}
		}).perCall()
	})
	r.out["stream.table_marshal_us"] = quiet(r.reps, func() float64 {
		return r.t.span("stream.table_marshal", 0, 1, func() {
			if _, err := snap.Table.Marshal(); err != nil {
				r.check(err)
			}
		}).perCall() / 1e3
	})
	return nil
}

// snapshots is a server.SnapshotSource holding one snapshot.
type snapshots struct{ snap *stream.Snapshot }

func (s snapshots) Current() *stream.Snapshot { return s.snap }

// quote times the serving path from the inside out: the snapshot lookup,
// the HTTP handler on a recorder, and a Go client against a handler that
// does nothing — the floor no tierd can beat.
func (r *run) quote() error {
	plan, err := gen.NewPlan("bench200", r.seed, 14, 200, 200, 0)
	if err != nil {
		return err
	}
	geo, err := geoip.ReadCSV(bytes.NewReader(plan.GeoIPCSV()))
	if err != nil {
		return err
	}
	w, err := stream.NewShardedWindow(traces.AggregateKey, time.Minute, 10, 1)
	if err != nil {
		return err
	}
	pre, err := decode(plan.Preload(1, 20))
	if err != nil {
		return err
	}
	for _, p := range pre {
		w.Ingest(p.h, p.recs)
	}
	strategy, err := bundling.ByName("profit-weighted")
	if err != nil {
		return err
	}
	rp, err := stream.NewRepricer(stream.Config{
		Window: w, Resolver: &demandfit.Resolver{Geo: geo}, Demand: econ.CED{Alpha: 1.1},
		Cost: cost.Linear{Theta: 0.2}, P0: 20, Strategy: strategy, Tiers: 3, DurationSec: 86400,
	})
	if err != nil {
		return err
	}
	snap, err := rp.Reprice(context.Background())
	if err != nil {
		return err
	}

	const n = 4096
	for _, kind := range []struct {
		want     string
		hit, rib float64
		source   stream.QuoteSource
		found    bool
	}{{"window", 1, 0, stream.SourceWindow, true}, {"rib", 0, 1, stream.SourceRIB, true}, {"miss", 0, 0, 0, false}} {
		mix := plan.QuoteMix(n, kind.hit, kind.rib)
		srcs, dsts := make([]netip.Addr, n), make([]netip.Addr, n)
		for i, q := range mix {
			srcs[i], dsts[i] = netip.MustParseAddr(q.Src), netip.MustParseAddr(q.Dst)
		}
		r.out["stream.quote_ns_"+kind.want] = quiet(r.reps, func() float64 {
			return r.t.span("stream.quote_"+kind.want, 0, n, func() {
				for i := range srcs {
					if q, ok := snap.Quote(srcs[i], dsts[i]); ok != kind.found || (ok && q.Source != kind.source) {
						r.check(fmt.Errorf("quote %v>%v answered %v %v, want a %s", srcs[i], dsts[i], q, ok, kind.want))
					}
				}
			}).perCall()
		})
	}

	mix := plan.QuoteMix(n, 0.80, 0.15)
	serve := func(name string, h http.Handler, path string, want int) (ns, allocs float64) {
		reqs := make([]*http.Request, n)
		for i, q := range mix {
			reqs[i] = httptest.NewRequest(http.MethodGet, path+"?src="+q.Src+"&dst="+q.Dst, nil)
		}
		ns = quiet(r.reps, func() float64 {
			s := r.t.span(name, 0, n, func() {
				for i, req := range reqs {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if code := rec.Code; code != want && !(mix[i].Want == "miss" && code == http.StatusNotFound) {
						r.check(fmt.Errorf("%s answered %d", req.URL, code))
					}
				}
			})
			allocs = float64(s.Allocs) / n
			return s.perCall()
		})
		return ns, allocs
	}
	single, err := server.New(server.Config{Snapshots: snapshots{snap}})
	if err != nil {
		return err
	}
	r.out["server.handler_quote_ns"], r.out["server.handler_quote_allocs"] =
		serve("server.handler_quote", single.Handler(), "/v1/quote", http.StatusOK)
	fleet, err := server.New(server.Config{Tenants: []*server.Tenant{
		{ID: "big", Snapshots: snapshots{snap}},
		{ID: "small", Snapshots: snapshots{snap}},
	}})
	if err != nil {
		return err
	}
	r.out["server.handler_tenant_quote_ns"], _ =
		serve("server.handler_tenant_quote", fleet.Handler(), "/v1/t/big/quote", http.StatusOK)
	metricsReq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	r.out["server.metrics_render_us"] = quiet(r.reps, func() float64 {
		return r.t.span("server.metrics_render", 0, 100, func() {
			for i := 0; i < 100; i++ {
				single.Handler().ServeHTTP(httptest.NewRecorder(), metricsReq)
			}
		}).perCall() / 1e3
	})
	bucket := tenant.NewBucket(1e12, 1e12, nil)
	r.out["tenant.bucket_allow_ns"] = quiet(r.reps, func() float64 {
		return r.t.span("tenant.bucket_allow", 0, n, func() {
			for i := 0; i < n; i++ {
				if ok, _ := bucket.Allow(); !ok {
					r.check(fmt.Errorf("a bucket of 1e12 tokens ran dry"))
				}
			}
		}).perCall()
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	body := []byte(`{"src":"172.16.0.1","dst":"10.0.0.1","tier":0,"price_usd_per_mbps_month":20,"source":"window","epoch":1}` + "\n")
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body) // the connection is the only failure mode here
	})}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at Close below
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/v1/quote?src=172.16.0.1&dst=10.0.0.1"
	var buf bytes.Buffer
	r.out["loopback.roundtrip_us"] = quiet(r.reps, func() float64 {
		return r.t.span("loopback.roundtrip", 0, 500, func() {
			for i := 0; i < 500; i++ {
				resp, err := client.Get(url)
				if err != nil {
					r.check(err)
				}
				buf.Reset()
				_, _ = buf.ReadFrom(resp.Body) // a short read shows as a wrong length below
				resp.Body.Close()
				if buf.Len() != len(body) {
					r.check(fmt.Errorf("loopback body of %d bytes, want %d", buf.Len(), len(body)))
				}
			}
		}).perCall() / 1e3
	})
	return nil
}

// eval times every registered experiment on its own, serially, at the
// seed the batch_eval stage gives tiersim.
func (r *run) eval() error {
	for _, e := range experiments.All() {
		r.out["experiments."+e.ID+"_ms"] = quiet((r.reps+2)/3, func() float64 {
			return r.t.span("experiments."+e.ID, 0, 1, func() {
				if _, err := e.Run(experiments.Options{Seed: gen.EvalSeed, Workers: 1}); err != nil {
					r.check(fmt.Errorf("experiment %s: %v", e.ID, err))
				}
			}).perCall() / 1e6
		})
	}
	return nil
}
