#!/bin/sh
# Tier-1 gate.
#
#   ./ci.sh            — the gate: everything a change must pass before
#                        it lands.
#   ./ci.sh recover    — durability gate alone: the crash-recovery
#                        parity matrix and the kill -9 e2e at every
#                        pinned seed (RECOVER_SEEDS, default
#                        "1 7 99 4242 31337"), and the restore of a data
#                        dir an older, sharded tierd wrote
#                        (cmd/tierd/testdata/parent-shards4).
#   ./ci.sh tenants    — multi-tenant gate alone: fleet-vs-solo tier
#                        table parity (one 3-tenant tierd against three
#                        single-tenant tierds over partitioned traces,
#                        byte-identical before and after kill -9 of all
#                        four; TENANTS_SEED pins the trace and kill
#                        schedule), WFQ fairness (a heavy tenant cannot
#                        push a light tenant's quote p99 past 2× its
#                        solo baseline; runs without the race detector —
#                        the bound is latency), tenant isolation under
#                        the race detector, and the internal/tenant unit
#                        suite.
#   ./ci.sh history    — durable-history + hot-reload gate alone: the
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
#                        (HISTORY_SEED, default 4242).
#   ./ci.sh docs       — documentation lint alone (cmd/docscheck):
#                        every relative markdown link resolves, the
#                        README repo-layout map names every cmd/ and
#                        internal/ package and bench/, every tierd_*
#                        metric minted in internal/server is documented
#                        in docs/OPERATIONS.md, every Benchmark*,
#                        Test* and Fuzz* the top-level docs, docs/*.md
#                        and this script cite is declared in some
#                        _test.go (root module or bench/), and
#                        every `./ci.sh <stage>`, cmd/<name> and
#                        internal/<name> they write exists, and the
#                        flags cmd/tierd registers are exactly the
#                        `-flag` rows of docs/OPERATIONS.md's table.
#
# Numbers are not this script's job: `go run -C bench .` (bench/README.md,
# BENCHMARK.json) is the repository's one benchmark.
#
# Gate steps, in order (each must pass):
#   1. gofmt         — `gofmt -l .` lists nothing (it prints the files
#                      that need formatting and fails otherwise)
#   2. go vet        — static analysis across every package
#   3. go build      — the full module compiles, commands included
#   4. bench module  — go vet + go test inside bench/: the repository
#                      benchmark is a module of its own that the root
#                      build never compiles, and its smoke test drives
#                      both workloads against real tierd/tiersim with
#                      every correctness check (≈ 20 s), so an API
#                      removal bench/layers depends on or a broken
#                      daemon fails here, not in the next benchmark run.
#                      Writes only .bench_build/ and bench/out/.
#   5. go test -race — the whole test suite under the race detector,
#                      covering the parallel experiment engine, the
#                      concurrent NetFlow collector, the sliding-window
#                      repricer (including the failure-path snapshot
#                      retention tests that hammer Quote against
#                      injected reprice failures), and the registry
#   6. chaos stage   — the tierd fault-injection e2e re-run explicitly
#                      at a pinned seed (CHAOS_SEED, default 4242), so
#                      the fault schedule the gate certifies is the one
#                      a failure replays locally
#   7. recover stage — crash-recovery parity (in-process fault matrix +
#                      out-of-process kill -9) replayed at every pinned
#                      seed in RECOVER_SEEDS
#   8. tenants stage — the multi-tenant gate (see ./ci.sh tenants)
#   9. history stage — the durable-history + hot-reload gate (see
#                      ./ci.sh history)
#  10. docs stage    — the documentation lint (see ./ci.sh docs)
#  11. benchmarks    — every benchmark compiles and runs one iteration
#                      (catches bit-rotted benchmark code without paying
#                      for a timed run)
#  12. fuzz smoke    — every netflow/bgp fuzz target, framelog's
#                      FuzzScan (the one frame decoder under the WAL and
#                      the history store), stream's FuzzPackedKey (the
#                      dedup key's packed form), FuzzWindowMatchesReference
#                      (the one dedup and aggregation path, at 1–12 slots,
#                      against the per-slot-map reference), FuzzCollectorAccounting (a decoded
#                      datagram's records = duplicates + dropped +
#                      bucketed) and FuzzRepricerMemory (kept repricer =
#                      fresh one), bundling's FuzzFixedPow (the CED
#                      block value's power kernel against math.Pow) and
#                      FuzzCurve (every strategy's
#                      one-pass capture curve = its per-b bundles),
#                      core's FuzzCostOrder (the carried cost order = a
#                      fresh sort), econ's FuzzLogitClosedForm (logit
#                      prices finite and ≥ cost, s0 = 1/(1 + S·e^{−αm})
#                      within the reference's bound) and traces' FuzzAggregateBucket (the
#                      bucket code's name = the masked addresses as netip
#                      prints them, one code per name), actually fuzzes
#                      for a short budget (FUZZTIME, default 10s each),
#                      not just replays its seed corpus
set -eu

cd "$(dirname "$0")"

recover() {
    # Durability gate: the in-process recovery parity matrix (clean,
    # torn WAL tail, corrupt WAL tail, corrupt checkpoint) plus the
    # out-of-process kill -9 test, each replayed at every pinned seed.
    # RECOVER_SEEDS overrides the seed list for local bisection. The
    # sharded-parent fixture takes no seed, so it runs once.
    for seed in ${RECOVER_SEEDS:-1 7 99 4242 31337}; do
        echo "==> recover stage: RECOVER_SEED=${seed} go test -run 'TestRecoveryParity|TestTierdKill9Recovery' ./cmd/tierd"
        RECOVER_SEED="$seed" go test -count=1 -run 'TestRecoveryParity|TestTierdKill9Recovery' ./cmd/tierd
    done
    echo "==> recover stage: go test -run 'TestRecoveryParentShards4|TestWarmRepriceAfterLongDowntime' ./cmd/tierd"
    go test -count=1 -run 'TestRecoveryParentShards4|TestWarmRepriceAfterLongDowntime' ./cmd/tierd
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
}

history() {
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
    for target in FuzzPackedKey FuzzWindowMatchesReference FuzzCollectorAccounting FuzzRepricerMemory; do
        echo "==> fuzz ${target} (internal/stream, ${FUZZTIME})"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" ./internal/stream
    done
    for target in FuzzFixedPow FuzzCurve; do
        echo "==> fuzz ${target} (internal/bundling, ${FUZZTIME})"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" ./internal/bundling
    done
    echo "==> fuzz FuzzCostOrder (internal/core, ${FUZZTIME})"
    go test -run='^$' -fuzz='^FuzzCostOrder$' -fuzztime="$FUZZTIME" ./internal/core
    echo "==> fuzz FuzzLogitClosedForm (internal/econ, ${FUZZTIME})"
    go test -run='^$' -fuzz='^FuzzLogitClosedForm$' -fuzztime="$FUZZTIME" ./internal/econ
    echo "==> fuzz FuzzAggregateBucket (internal/traces, ${FUZZTIME})"
    go test -run='^$' -fuzz='^FuzzAggregateBucket$' -fuzztime="$FUZZTIME" ./internal/traces
}

case "${1:-}" in
"") ;;
recover | tenants | history | docs)
    "$1"
    exit 0
    ;;
*)
    echo "ci.sh: unknown stage '$1' (stages: recover tenants history docs; no argument runs the whole gate)" >&2
    exit 2
    ;;
esac

FUZZTIME="${FUZZTIME:-10s}"

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "ci.sh: gofmt -w these files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# -count=1: the smoke builds and drives tierd and tiersim as subprocesses,
# which the test cache cannot see change.
echo "==> go vet -C bench ./... && go test -C bench -count=1 ./..."
go vet -C bench ./...
go test -C bench -count=1 ./...

echo "==> go test -race ./..."
go test -race ./...

CHAOS_SEED="${CHAOS_SEED:-4242}"
echo "==> chaos stage: CHAOS_SEED=${CHAOS_SEED} go test -race -run TestTierdChaos ./cmd/tierd"
CHAOS_SEED="$CHAOS_SEED" go test -race -count=1 -run 'TestTierdChaos' ./cmd/tierd

recover

tenants

history

docs

echo "==> go test -run='^$' -bench=. -benchtime=1x ./..."
go test -run='^$' -bench=. -benchtime=1x ./...

fuzz_smoke

echo "==> ci: all gates passed"
