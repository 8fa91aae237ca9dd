#!/bin/sh
# Tier-1 gate and perf tracking.
#
#   ./ci.sh            — the gate: everything a change must pass before
#                        it lands.
#   ./ci.sh bench      — timed benchmark run; writes BENCH_<date>.json
#                        (name, ns/op, allocs/op, custom metrics) via
#                        cmd/benchjson so the perf trajectory is
#                        machine-readable. Its -bench=. pattern takes in
#                        the re-price pipeline's rows with the rest:
#                        BenchmarkReprice (internal/stream, both tenant
#                        sizes), BenchmarkMapIntoFine (internal/parallel,
#                        workers 1 vs NumCPU) and BenchmarkDPScratchSolve
#                        at n=20000, B=4 (internal/optimize).
#   ./ci.sh bench-diff — regression gate: re-runs the benchmarks and
#                        compares against the newest committed
#                        BENCH_*.json via `benchjson diff`; fails when
#                        any benchmark's ns/op regressed by more than
#                        BENCH_THRESHOLD (default 0.15 = +15%).
#   ./ci.sh slo        — serving-path SLO gate: generates a trace at a
#                        deterministic seed, starts a real tierd, runs
#                        cmd/loadgen's smoke profile against it (quote
#                        load + NetFlow push together), converts the SLO
#                        report into benchmark rows, diffs them against
#                        the newest committed BENCH_*.json (p50/p99/p999
#                        quote-latency regressions beyond SLO_THRESHOLD
#                        — default 1.0 = +100%, latency on shared boxes
#                        is noisy — and absolute error-rate/QPS floors
#                        fail the gate), then merges the fresh record
#                        into that BENCH file so the trajectory carries
#                        it. The daemon runs with durability on
#                        (-data-dir), so the gate certifies the quote
#                        SLO with the WAL and checkpoint loop active.
#                        With no committed baseline the latency diff is
#                        skipped with a warning instead of failing.
#                        Knobs: SLO_QPS (400), SLO_DURATION (5s),
#                        SLO_SEED (7), SLO_THRESHOLD, SLO_HTTP_PORT
#                        (18080), SLO_UDP_PORT (12055).
#   ./ci.sh ingest     — ingest-scaling gate: benchmarks the sharded
#                        ingest path (window shard routing + merge, and
#                        the full UDP receive path with batched reads)
#                        at shards=1 through 8 plus NumCPU, the one-window
#                        apply at ten live slots (WindowIngest/fresh and
#                        /dup, ns/rec), and the zero-alloc packet decode; converts the runs to
#                        rows via cmd/benchjson, diffs ns/op against
#                        the newest committed BENCH_*.json
#                        (INGEST_THRESHOLD, default 0.5 = +50% — ingest
#                        benches on shared CI boxes are noisy), and
#                        merges the fresh rows into that file so the
#                        shards=1 vs shards=N scaling curve travels
#                        with the repo. With no committed baseline the
#                        rows are written to a fresh BENCH_<date>.json
#                        instead of diffed. INGEST_BENCHTIME (default
#                        300ms) trades precision for wall time.
#   ./ci.sh recover    — durability gate alone: the crash-recovery
#                        parity matrix and the kill -9 e2e at every
#                        pinned seed (RECOVER_SEEDS, default
#                        "1 7 99 4242 31337").
#   ./ci.sh tenants    — multi-tenant gate alone: fleet-vs-solo tier
#                        table parity (one 3-tenant tierd against three
#                        single-tenant tierds over partitioned traces,
#                        byte-identical before and after kill -9 of all
#                        four; TENANTS_SEED pins the trace and kill
#                        schedule), WFQ fairness (a heavy tenant cannot
#                        push a light tenant's quote p99 past 2× its
#                        solo baseline; runs without the race detector —
#                        the bound is latency), tenant isolation under
#                        the race detector, the internal/tenant unit
#                        suite, and the fleet-mode loadgen e2e.
#   ./ci.sh history    — durable-history + hot-reload gate: the
#                        internal/histstore unit suite under the race
#                        detector, the store/ring parity property test
#                        and the SIGHUP reload-under-load test (zero
#                        non-200 quote responses, monotone config
#                        epochs) under -race, the idempotent-restore
#                        double-append test, and the out-of-process
#                        kill -9 + SIGHUP e2e (a real tierd with
#                        -history-store and -config, reloaded, killed,
#                        restarted; /v1/history must still serve epochs
#                        older than the ring and every retained
#                        checkpoint) — each replayed at a pinned seed
#                        (HISTORY_SEED, default 4242). Then the
#                        histstore append/scan/open benchmarks run
#                        (HISTORY_BENCHTIME, default 300ms), diff
#                        against the newest committed BENCH_*.json
#                        (HISTORY_THRESHOLD, default 0.5 = +50%), and
#                        merge in so the append-throughput row travels
#                        with the repo.
#   ./ci.sh docs       — documentation lint alone (cmd/docscheck):
#                        every relative markdown link resolves, the
#                        README repo-layout map names every cmd/ and
#                        internal/ package, every tierd_* metric
#                        minted in internal/server is documented in
#                        docs/OPERATIONS.md, and every Benchmark* the
#                        top-level docs and docs/*.md cite is declared
#                        in some _test.go (root module or bench/).
#
# Gate steps, in order (each must pass):
#   1. go vet        — static analysis across every package
#   2. go build      — the full module compiles, commands included
#   3. bench module  — go vet + go build inside bench/ (read-only): the
#                      repository benchmark is a module of its own that
#                      the root build never compiles, so an
#                      internal/server, internal/stream or
#                      internal/tenant API removal that bench/layers
#                      depends on fails here, not in a benchmark run
#   4. go test -race — the whole test suite under the race detector,
#                      covering the parallel experiment engine, the
#                      concurrent NetFlow collector, the sliding-window
#                      repricer (including the failure-path snapshot
#                      retention tests that hammer Quote against
#                      injected reprice failures), and the registry
#   5. chaos stage   — the tierd fault-injection e2e re-run explicitly
#                      at a pinned seed (CHAOS_SEED, default 4242), so
#                      the fault schedule the gate certifies is the one
#                      a failure replays locally
#   6. recover stage — crash-recovery parity (in-process fault matrix +
#                      out-of-process kill -9) replayed at every pinned
#                      seed in RECOVER_SEEDS
#   7. tenants stage — the multi-tenant gate (see ./ci.sh tenants)
#   8. history stage — the durable-history + hot-reload tests at the
#                      pinned seed (the benchmark half of
#                      `./ci.sh history` stays out of the gate — it
#                      mutates BENCH_*.json, like slo/ingest)
#   9. docs stage    — the documentation lint (see ./ci.sh docs)
#  10. benchmarks    — every benchmark compiles and runs one iteration
#                      (catches bit-rotted benchmark code without paying
#                      for a timed run; use `./ci.sh bench` for real
#                      numbers)
#  11. fuzz smoke    — every netflow/bgp fuzz target, framelog's
#                      FuzzScan (the one frame decoder under the WAL and
#                      the history store) and stream's FuzzPackedKey (the
#                      dedup key's packed form), actually fuzzes for a short
#                      budget (FUZZTIME, default 10s each), not just
#                      replays its seed corpus
set -eu

cd "$(dirname "$0")"

bench() {
    date_tag=$(date +%F)
    out="BENCH_${date_tag}.json"
    echo "==> go test -bench=. -benchmem ./... > ${out}"
    go test -run='^$' -bench=. -benchmem ./... | go run ./cmd/benchjson > "$out"
    echo "==> wrote $out"
}

bench_diff() {
    base=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
    if [ -z "$base" ]; then
        echo "bench-diff: no committed BENCH_*.json baseline" >&2
        exit 1
    fi
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    echo "==> go test -bench=. -benchmem ./... (fresh run)"
    go test -run='^$' -bench=. -benchmem ./... | go run ./cmd/benchjson > "$tmp"
    echo "==> benchjson diff -threshold ${BENCH_THRESHOLD:-0.15} $base <fresh>"
    go run ./cmd/benchjson diff -threshold "${BENCH_THRESHOLD:-0.15}" "$base" "$tmp"
    echo "==> bench-diff passed"
}

slo() {
    tmp=$(mktemp -d)
    tierd_pid=
    trap 'rm -rf "$tmp"; [ -n "$tierd_pid" ] && kill "$tierd_pid" 2>/dev/null' EXIT

    echo "==> build tierd + loadgen"
    go build -o "$tmp/tierd" ./cmd/tierd
    go build -o "$tmp/loadgen" ./cmd/loadgen
    go build -o "$tmp/benchjson" ./cmd/benchjson

    seed="${SLO_SEED:-7}"
    echo "==> tracegen -dataset euisp -seed $seed"
    go run ./cmd/tracegen -dataset euisp -seed "$seed" -out "$tmp/trace" -stdout > "$tmp/stream.nf"

    http_addr="127.0.0.1:${SLO_HTTP_PORT:-18080}"
    udp_addr="127.0.0.1:${SLO_UDP_PORT:-12055}"
    # Durability is on: the WAL (the per-datagram cost, group-commit
    # fsync) is active for every packet ingested during the measured
    # window — that is what "durability off the hot quote path"
    # certifies. The checkpoint cadence is set past the run length so
    # the once-a-cadence background encode+fsync burst cannot alias
    # into the 5-second p999 sample on single-core CI boxes (warmup
    # runs ~1 minute, which is exactly the default interval); a final
    # checkpoint still runs at shutdown, and checkpoint correctness has
    # its own gate (./ci.sh recover).
    echo "==> tierd -listen $http_addr -udp $udp_addr -reprice 500ms -data-dir $tmp/data"
    "$tmp/tierd" -trace "$tmp/trace" -listen "$http_addr" -udp "$udp_addr" \
        -reprice 500ms -window 10m -slot 1m \
        -data-dir "$tmp/data" -checkpoint-interval 5m -wal-sync batch &
    tierd_pid=$!

    echo "==> loadgen smoke profile: ${SLO_QPS:-400} qps for ${SLO_DURATION:-5s} + ${SLO_NETFLOW_PPS:-200} pps NetFlow churn"
    "$tmp/loadgen" -target "http://$http_addr" -stream "$tmp/stream.nf" \
        -netflow "$udp_addr" -netflow-pps "${SLO_NETFLOW_PPS:-200}" \
        -qps "${SLO_QPS:-400}" -duration "${SLO_DURATION:-5s}" -workers 16 \
        -warmup -warmup-timeout 60s -seed "$seed" -pid "$tierd_pid" \
        -profile smoke -report "$tmp/slo.json"

    kill "$tierd_pid" 2>/dev/null
    wait "$tierd_pid" 2>/dev/null || true
    tierd_pid=

    base=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
    if [ -z "$base" ]; then
        # First run on a fresh checkout: there is nothing to regress
        # against, so the latency diff is skipped rather than failed.
        # `./ci.sh bench` creates the baseline the next run will use.
        echo "slo: WARNING: no committed BENCH_*.json baseline; skipping latency diff (run ./ci.sh bench to create one)" >&2
        exit 0
    fi
    "$tmp/benchjson" slo "$tmp/slo.json" > "$tmp/slo-rows.json"
    echo "==> benchjson diff -threshold ${SLO_THRESHOLD:-1.0} $base <slo rows>"
    "$tmp/benchjson" diff -threshold "${SLO_THRESHOLD:-1.0}" "$base" "$tmp/slo-rows.json"
    "$tmp/benchjson" merge "$base" "$tmp/slo-rows.json" > "$tmp/merged.json"
    cp "$tmp/merged.json" "$base"
    echo "==> slo: record merged into $base"
}

ingest() {
    tmp=$(mktemp)
    trap 'rm -f "$tmp" "$tmp.merged"' EXIT
    bt="${INGEST_BENCHTIME:-300ms}"
    echo "==> ingest stage: go test -bench 'WindowIngest|ShardedWindowIngest|UDPIngestShards' -benchmem -benchtime $bt ./internal/stream"
    {
        go test -run='^$' -bench='BenchmarkWindowIngest|BenchmarkShardedWindowIngest|BenchmarkUDPIngestShards' \
            -benchmem -benchtime "$bt" ./internal/stream
        echo "==> ingest stage: go test -bench DecodePacketInto ./internal/netflow" >&2
        go test -run='^$' -bench='BenchmarkDecodePacketInto' \
            -benchmem -benchtime "$bt" ./internal/netflow
    } | go run ./cmd/benchjson > "$tmp"
    base=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
    if [ -z "$base" ]; then
        out="BENCH_$(date +%F).json"
        echo "ingest: WARNING: no committed BENCH_*.json baseline; writing fresh $out" >&2
        cp "$tmp" "$out"
        exit 0
    fi
    echo "==> benchjson diff -threshold ${INGEST_THRESHOLD:-0.5} $base <ingest rows>"
    go run ./cmd/benchjson diff -threshold "${INGEST_THRESHOLD:-0.5}" "$base" "$tmp"
    go run ./cmd/benchjson merge "$base" "$tmp" > "$tmp.merged"
    mv "$tmp.merged" "$base"
    echo "==> ingest: scaling rows merged into $base"
}

recover() {
    # Durability gate: the in-process recovery parity matrix (clean,
    # torn WAL tail, corrupt WAL tail, corrupt checkpoint) plus the
    # out-of-process kill -9 test, each replayed at every pinned seed.
    # RECOVER_SEEDS overrides the seed list for local bisection.
    for seed in ${RECOVER_SEEDS:-1 7 99 4242 31337}; do
        echo "==> recover stage: RECOVER_SEED=${seed} go test -run 'TestRecoveryParity|TestTierdKill9Recovery' ./cmd/tierd"
        RECOVER_SEED="$seed" go test -count=1 -run 'TestRecoveryParity|TestTierdKill9Recovery' ./cmd/tierd
    done
}

tenants() {
    # The fleet parity/WFQ pair runs without -race: parity is a
    # multi-process e2e the detector cannot see across, and the WFQ
    # bound is a latency assertion the detector's slowdown turns into
    # noise (the test skips itself under -race). Isolation is the
    # concurrency test, so it runs under the detector.
    seed="${TENANTS_SEED:-4242}"
    echo "==> tenants stage: RECOVER_SEED=${seed} go test -run 'TestTenantParityKill9|TestTenantWFQFairness' ./cmd/tierd"
    RECOVER_SEED="$seed" go test -count=1 -run 'TestTenantParityKill9|TestTenantWFQFairness' ./cmd/tierd
    echo "==> tenants stage: go test -race -run TestTenantIsolation ./cmd/tierd"
    go test -race -count=1 -run 'TestTenantIsolation' ./cmd/tierd
    echo "==> tenants stage: go test -race ./internal/tenant"
    go test -race -count=1 ./internal/tenant
    echo "==> tenants stage: go test -run TestLoadgenFleetEndToEnd ./cmd/loadgen"
    go test -count=1 -run 'TestLoadgenFleetEndToEnd' ./cmd/loadgen
}

history_tests() {
    seed="${HISTORY_SEED:-4242}"
    echo "==> history stage: go test -race ./internal/histstore"
    go test -race -count=1 ./internal/histstore
    echo "==> history stage: RECOVER_SEED=${seed} go test -race -run 'TestHistoryStoreRingParity|TestReloadUnderLoad|TestFleetHistoryNamespacing' ./cmd/tierd"
    RECOVER_SEED="$seed" go test -race -count=1 \
        -run 'TestHistoryStoreRingParity|TestReloadUnderLoad|TestFleetHistoryNamespacing' ./cmd/tierd
    echo "==> history stage: RECOVER_SEED=${seed} go test -run 'TestHistoryRestoreDoubleAppend|TestTierdHistoryKill9Reload' ./cmd/tierd"
    RECOVER_SEED="$seed" go test -count=1 \
        -run 'TestHistoryRestoreDoubleAppend|TestTierdHistoryKill9Reload' ./cmd/tierd
}

history() {
    history_tests

    tmp=$(mktemp)
    trap 'rm -f "$tmp" "$tmp.merged"' EXIT
    bt="${HISTORY_BENCHTIME:-300ms}"
    echo "==> history stage: go test -bench 'BenchmarkHistory' -benchmem -benchtime $bt ./internal/histstore"
    go test -run='^$' -bench='BenchmarkHistory' -benchmem -benchtime "$bt" ./internal/histstore \
        | go run ./cmd/benchjson > "$tmp"
    base=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
    if [ -z "$base" ]; then
        out="BENCH_$(date +%F).json"
        echo "history: WARNING: no committed BENCH_*.json baseline; writing fresh $out" >&2
        cp "$tmp" "$out"
        exit 0
    fi
    echo "==> benchjson diff -threshold ${HISTORY_THRESHOLD:-0.5} $base <history rows>"
    go run ./cmd/benchjson diff -threshold "${HISTORY_THRESHOLD:-0.5}" "$base" "$tmp"
    go run ./cmd/benchjson merge "$base" "$tmp" > "$tmp.merged"
    mv "$tmp.merged" "$base"
    echo "==> history: append-throughput rows merged into $base"
}

docs() {
    echo "==> docs stage: go run ./cmd/docscheck"
    go run ./cmd/docscheck
}

fuzz_smoke() {
    # `go test -fuzz` accepts only one target per run, so iterate.
    for target in FuzzDecodePacket FuzzUDPDatagramPath FuzzReader; do
        echo "==> fuzz ${target} (internal/netflow, ${FUZZTIME})"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" ./internal/netflow
    done
    for target in FuzzDecodeUpdate FuzzDecodeBody FuzzDecodeOpen; do
        echo "==> fuzz ${target} (internal/bgp, ${FUZZTIME})"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" ./internal/bgp
    done
    echo "==> fuzz FuzzScan (internal/framelog, ${FUZZTIME})"
    go test -run='^$' -fuzz='^FuzzScan$' -fuzztime="$FUZZTIME" ./internal/framelog
    echo "==> fuzz FuzzPackedKey (internal/stream, ${FUZZTIME})"
    go test -run='^$' -fuzz='^FuzzPackedKey$' -fuzztime="$FUZZTIME" ./internal/stream
}

if [ "${1:-}" = "bench" ]; then
    bench
    exit 0
fi

if [ "${1:-}" = "bench-diff" ]; then
    bench_diff
    exit 0
fi

if [ "${1:-}" = "slo" ]; then
    slo
    exit 0
fi

if [ "${1:-}" = "ingest" ]; then
    ingest
    exit 0
fi

if [ "${1:-}" = "recover" ]; then
    recover
    exit 0
fi

if [ "${1:-}" = "tenants" ]; then
    tenants
    exit 0
fi

if [ "${1:-}" = "history" ]; then
    history
    exit 0
fi

if [ "${1:-}" = "docs" ]; then
    docs
    exit 0
fi

FUZZTIME="${FUZZTIME:-10s}"

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go vet -C bench ./... && go build -C bench ./..."
go vet -C bench ./...
go build -C bench ./...

echo "==> go test -race ./..."
go test -race ./...

CHAOS_SEED="${CHAOS_SEED:-4242}"
echo "==> chaos stage: CHAOS_SEED=${CHAOS_SEED} go test -race -run TestTierdChaos ./cmd/tierd"
CHAOS_SEED="$CHAOS_SEED" go test -race -count=1 -run 'TestTierdChaos' ./cmd/tierd

recover

tenants

history_tests

docs

echo "==> go test -run='^$' -bench=. -benchtime=1x ./..."
go test -run='^$' -bench=. -benchtime=1x ./...

fuzz_smoke

echo "==> ci: all gates passed"
