package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tieredpricing/bench/e2e"
	"tieredpricing/bench/layers"
)

// bench is the command's view of the checkout it measures.
type bench struct {
	root string
	spec *spec
}

// result is one run of one workload.
type result struct {
	Seed      int64
	Values    map[string]float64 // by metric name
	Segments  map[string]int     // segments behind each sliced value
	Attempted int
	Failed    int
	Problems  []string // failed correctness checks
}

// freshKeys names the workload whose inputs share no work; the other
// workload, shared_keys, is the traffic the issue describes.
const freshKeys = "fresh_keys"

// plan is how one run spends its seconds. Every run measures all four
// stages, because every run reports every end-to-end metric; the workload
// decides the inputs, not the shares. A run is up to six rounds of short
// segments — quote, tiersim, ingest, tiersim, fleet, tiersim — because the
// box's speed moves by a fifth from one ten seconds to the next, and a
// metric sampled at six moments of the run finds the box at its own speed
// in one of them far more often than a metric sampled at two.
type plan struct {
	rounds    int
	quote     time.Duration // per round
	paced     time.Duration // per round
	overload  time.Duration // per round
	recovers  int           // per round
	mixed     time.Duration // per round, whole seconds
	evalRuns  int           // per slot; a round has three slots
	layerReps int           // traced run only
}

// roundOverhead is what a round spends outside its timed segments:
// booting three daemons, warming them, settling and draining.
const roundOverhead = 2200 * time.Millisecond

// evalRun is about what one tiersim run takes on a quiet box.
const evalRun = 550 * time.Millisecond

func (b *bench) plan(seconds int, traced bool) plan {
	total := time.Duration(seconds) * time.Second
	p := plan{}
	if traced {
		// Half the run re-measures the stages, for the per-layer metrics
		// only they can see from outside; the other half is in process.
		total /= 2
		p.layerReps = min(max(seconds/5, 1), 6)
	}
	p.rounds = min(max(int(total/(9*time.Second)), 1), 6)
	timed := max(total/time.Duration(p.rounds)-roundOverhead, 2*time.Second)
	share := func(pct int) time.Duration { return timed * time.Duration(pct) / 100 }
	p.quote = share(21)
	p.paced = share(17)
	p.overload = share(12)
	// A recovery replays the round's paced corpus: about 0.2 s.
	p.recovers = min(max(int(share(5)/(200*time.Millisecond)), 2), 8)
	p.mixed = max(share(25).Round(time.Second), time.Second)
	p.evalRuns = max(int((share(20)/3+evalRun/2)/evalRun), 1)
	return p
}

// run measures one workload once.
func (b *bench) run(ctx context.Context, workload string, seed int64, seconds int, traced bool) (*result, error) {
	known := false
	for _, w := range b.spec.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json lists the workloads)", workload)
	}
	build := filepath.Join(b.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	env := e2e.Env{Bin: filepath.Join(build, "bin"), Work: work, Seed: seed, Procs: runtime.NumCPU(),
		FreshKeys: workload == freshKeys}
	p := b.plan(seconds, traced)
	lengths := e2e.Lengths{Paced: p.paced, Mixed: p.mixed}

	// Set-up, five times over: the first of a checkout compiles
	// everything, and the median is the set-up a run pays.
	var in *e2e.Inputs
	var setups []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := e2e.Build(b.root, env.Bin); err != nil {
			return nil, err
		}
		if in, err = e2e.Generate(env, lengths); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	sort.Float64s(setups)

	res := &result{Seed: seed, Values: map[string]float64{}, Segments: map[string]int{}}
	higher := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), b.spec.EndToEnd...), b.spec.PerLayer...) {
		higher[m.Name] = m.Better == "higher"
	}
	// best holds, for every sliced metric, the best of its segments'
	// quiet deciles so far: the quiet decile sets aside the slices a
	// neighbour slowed, and the best segment is the one measured while
	// the box was at its own speed (bench/README.md, "Steadiness").
	best := map[string]float64{"setup_s": setups[len(setups)/2]}
	outside := map[string]float64{}
	digest := ""
	retried := 0
	add := func(o e2e.Out, err error) error {
		if o.Stalled != "" {
			res.Failed += o.StalledOps
			res.Problems = append(res.Problems, o.Stalled+", and again when measured a second time")
		}
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		res.Problems = append(res.Problems, o.Problems...)
		for name, vals := range o.Series {
			if len(vals) == 0 {
				continue
			}
			v := e2e.Quiet(vals, higher[name])
			if prev, ok := best[name]; !ok || (v > prev) == higher[name] {
				best[name] = v
			}
			res.Segments[name]++
		}
		for name, v := range o.Layer {
			// Every round reports it: keep the largest, which for all but
			// the counters is the worst.
			if prev, ok := outside[name]; !ok || v > prev {
				outside[name] = v
			}
		}
		if o.Digest != "" && digest != "" && o.Digest != digest {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("batch_eval: tiersim printed sha256 %s, earlier in the run %s", o.Digest, digest))
		}
		if o.Digest != "" {
			digest = o.Digest
		}
		return err
	}
	// A segment the box stalled under is measured once more, and only
	// the second measurement counts; twice in a run is the limit.
	again := func(segment func() (e2e.Out, error)) error {
		o, err := segment()
		if err == nil && o.Stalled != "" && retried < 2 {
			retried++
			fmt.Fprintf(os.Stderr, "bench: %s; measuring the segment again\n", o.Stalled)
			o, err = segment()
		}
		return add(o, err)
	}
	evals := 0
	eval := func() error {
		evals++
		return add(e2e.Eval(ctx, env, p.evalRuns, evals == 1, time.Duration(p.evalRuns)*2*evalRun))
	}
	boxTotal, boxStolen, _ := e2e.BoxCPU()
	for round := 0; round < p.rounds; round++ {
		if err := add(e2e.Quote(ctx, env, in, p.quote)); err != nil {
			return nil, err
		}
		if err := eval(); err != nil {
			return nil, err
		}
		if err := again(func() (e2e.Out, error) { return e2e.Ingest(ctx, env, in, p.overload, p.recovers) }); err != nil {
			return nil, err
		}
		if err := eval(); err != nil {
			return nil, err
		}
		if err := again(func() (e2e.Out, error) { return e2e.Mixed(ctx, env, in, p.mixed) }); err != nil {
			return nil, err
		}
		if err := eval(); err != nil {
			return nil, err
		}
	}
	outside["gen.segments_retried"] = float64(retried)
	if t, st, err := e2e.BoxCPU(); err == nil && t > boxTotal {
		outside["box.steal_pct"] = 100 * float64(st-boxStolen) / float64(t-boxTotal)
	}

	for _, m := range b.spec.EndToEnd {
		if _, ok := best[m.Name]; !ok {
			return nil, fmt.Errorf("no stage measured %s", m.Name)
		}
		res.Values[m.Name] = best[m.Name]
	}
	if env.Procs < 2 {
		res.Problems = append(res.Problems, "invalid run: online_mixed needs two senders and the box has one processor")
	}
	if !traced {
		return res, nil
	}

	res.Values = outside
	inProcess, tr, err := layers.Run(seed, p.layerReps, work)
	if err != nil {
		return nil, err
	}
	for name, v := range inProcess {
		res.Values[name] = v
	}
	for name, v := range best {
		res.Values[name] = v
	}
	outDir := filepath.Join(b.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.WriteFile(filepath.Join(outDir, "trace.json")); err != nil {
		return nil, err
	}
	v := res.Values
	v["parallel.speedup"] = v["eval_serial_s"] / v["eval_s"]
	// The budget gaps: what the end-to-end figure holds that the layers
	// under it do not account for. A gap is a finding, not a gate.
	quoteUs := v["quote_p50_us"]
	v["gap.quote_pct"] = 100 * (quoteUs - v["loopback.roundtrip_us"] - v["server.handler_quote_ns"]/1e3) / quoteUs
	// Per record: each datagram's decode, deal and WAL append are shared
	// by 30, and the Paced corpus is half duplicates or has none.
	dup := float64(in.Paced.Duplicates) / float64(in.Paced.Records)
	perRec := (v["netflow.decode_ns_per_dgram"]+v["stream.deal_ns_per_dgram"]+v["wal.append_ns_per_dgram"])/30 +
		(1-dup)*v["stream.apply_ns_per_rec_fresh"] + dup*v["stream.apply_ns_per_rec_dup"]
	v["gap.ingest_pct"] = 100 * (v["ingest_cpu_us_per_krec"] - perRec) / v["ingest_cpu_us_per_krec"]
	v["gap.reprice_pct"] = 100 * (v["tierd.reprice_mean_ms.big"] - v["stream.reprice_ms_20k"]) / v["tierd.reprice_mean_ms.big"]
	for _, m := range b.spec.PerLayer {
		if _, ok := v[m.Name]; !ok {
			return nil, fmt.Errorf("the traced run did not measure %s", m.Name)
		}
	}
	return res, nil
}

// driverRun is one run as the driver asks for it: every metric by name
// on standard output, and as the last line one JSON object with the
// run's verdict and the metrics BENCHMARK.json lists for this kind of
// run. A run that fails a correctness check prints it and exits 1.
func (b *bench) driverRun(ctx context.Context, workload string, seed int64, seconds int, traced bool) int {
	res, err := b.run(ctx, workload, seed, seconds, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := b.spec.EndToEnd
	if traced {
		defs = b.spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.Problems) == 0 && res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	fmt.Printf("workload %s seed %d seconds %d trace %v: %d operations, %d failed\n",
		workload, seed, seconds, traced, res.Attempted, res.Failed)
	for _, m := range defs {
		line.Metrics[m.Name] = value{res.Values[m.Name], m.Unit}
		if n := res.Segments[m.Name]; n > 0 {
			fmt.Printf("  %-42s %14.6g %-8s best of %d segments\n", m.Name, res.Values[m.Name], m.Unit, n)
		} else {
			fmt.Printf("  %-42s %14.6g %s\n", m.Name, res.Values[m.Name], m.Unit)
		}
	}
	if traced {
		fmt.Printf("unattributed: %.0f %% of quote_p50_us is neither the loopback round trip nor the handler;\n"+
			"  %.0f %% of tierd's CPU per record is outside decode, deal, apply and WAL append;\n"+
			"  %.0f %% of tierd's re-price time at 20k is absent from the same re-price in process\n",
			res.Values["gap.quote_pct"], res.Values["gap.ingest_pct"], res.Values["gap.reprice_pct"])
	}
	for _, p := range res.Problems {
		fmt.Println("FAILED CHECK:", p)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// smoke is one short traced run, which drives every stage, every
// correctness check and every layer, and one shorter plain run of every
// other workload: it says whether the benchmark still works after a
// refactor, and nothing about speed.
func (b *bench) smoke(ctx context.Context) int {
	for i, w := range b.spec.Workloads {
		seconds, traced := 5, true
		if i > 0 {
			seconds, traced = 3, false
		}
		res, err := b.run(ctx, w.Name, 1, seconds, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: smoke: %s: %v\n", w.Name, err)
			return 1
		}
		if len(res.Problems) > 0 {
			fmt.Fprintf(os.Stderr, "bench: smoke: %s: %v\n", w.Name, res.Problems)
			return 1
		}
	}
	fmt.Println("smoke ok")
	return 0
}
