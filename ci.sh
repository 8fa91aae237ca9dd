#!/bin/sh
# Tier-1 gate.
#
#   ./ci.sh            — the gate: everything a change must pass before
#                        it lands.
#   ./ci.sh recover    — durability gate alone: the crash-recovery
#                        parity matrix, the fallback to an older
#                        checkpoint the WAL has rotated past and the
#                        kill -9 e2e at every pinned seed (RECOVER_SEEDS,
#                        default "1 7 99 4242 31337"), the restore of
#                        a data dir an older, sharded tierd wrote
#                        (cmd/tierd/testdata/parent-shards4), and the
#                        dedup table and WAL replay that recovery
#                        rebuilds the window through (internal/stream's
#                        TestDedupTableMatchesModel,
#                        TestDedupGenerationWrap and
#                        TestWindowMatchesReference, and every
#                        internal/wal test with Replay in its name),
#                        and, under the race detector, the two-goroutine
#                        replay against serial IngestAt
#                        (TestLoaderMatchesIngestAt: fresh,
#                        half-duplicate, aging, on a checkpoint, torn
#                        tail, the key-pool bound).
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
#   ./ci.sh history    — history + hot-reload gate alone: the
#                        internal/histstore unit suite under the race
#                        detector; under -race too, the memory/file
#                        store parity property test, the restart that
#                        must not reuse an epoch, the /v1/history
#                        bodies pinned byte for byte, and the SIGHUP
#                        reload-under-load test (zero non-200 quote
#                        responses, monotone config epochs); then the
#                        idempotent back-fill test, the upgrade from a
#                        checkpoint that carried history, and the
#                        out-of-process kill -9 + SIGHUP e2e (a real
#                        tierd with -history-store and -config,
#                        reloaded, killed, restarted; /v1/history must
#                        still serve epochs older than every retained
#                        checkpoint) — each replayed at a pinned seed
#                        (HISTORY_SEED, default 4242).
#   ./ci.sh examples   — every examples/* program run with `go run`; a
#                        non-zero exit, or stdout that differs from the
#                        program's committed examples/<name>/stdout.golden,
#                        fails the gate (every example is deterministic;
#                        a change meant to move an example's output
#                        regenerates its golden file with
#                        `go run ./examples/<name> > examples/<name>/stdout.golden`).
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
#   4. layering      — `go list -deps ./internal/stream` does not list
#                      internal/bgp: a snapshot's quote fallback is its
#                      own route index, and the §5.1 wire (AnnounceTiered,
#                      Speaker, Customer, RIB) stays out of the serving
#                      package
#   5. bench module  — go vet + go test inside bench/: the repository
#                      benchmark is a module of its own that the root
#                      build never compiles, and its smoke test drives
#                      both workloads against real tierd/tiersim with
#                      every correctness check (≈ 20 s), so an API
#                      removal bench/layers depends on or a broken
#                      daemon fails here, not in the next benchmark run.
#                      Writes only .bench_build/ and bench/out/.
#   6. go test -race — the whole test suite under the race detector,
#                      covering the parallel experiment engine, the
#                      concurrent NetFlow collector, the sliding-window
#                      repricer (including the failure-path snapshot
#                      retention tests that hammer Quote against
#                      injected reprice failures), and the registry
#   7. chaos stage   — the tierd fault-injection e2e re-run explicitly
#                      at a pinned seed (CHAOS_SEED, default 4242), so
#                      the fault schedule the gate certifies is the one
#                      a failure replays locally
#   8. recover stage — crash-recovery parity (in-process fault matrix +
#                      out-of-process kill -9) replayed at every pinned
#                      seed in RECOVER_SEEDS, plus the dedup-table and
#                      WAL-replay suites recovery rebuilds through and
#                      the two-goroutine replay's parity test (-race)
#   9. tenants stage — the multi-tenant gate (see ./ci.sh tenants)
#  10. history stage — the history + hot-reload gate (see
#                      ./ci.sh history)
#  11. docs stage    — the documentation lint (see ./ci.sh docs)
#  12. examples      — every example runs to a zero exit and prints
#                      its stdout.golden (see ./ci.sh examples)
#  13. benchmarks    — every benchmark compiles and runs one iteration
#                      (catches bit-rotted benchmark code without paying
#                      for a timed run)
#  14. fuzz smoke    — every Fuzz* target `go test -list` finds in the
#                      module actually fuzzes for a short budget
#                      (FUZZTIME, default 10s each), not just replays
#                      its seed corpus; a new target joins without an
#                      edit here
set -eu

cd "$(dirname "$0")"

recover() {
    # Durability gate: the in-process recovery parity matrix (clean,
    # torn WAL tail, corrupt WAL tail, corrupt checkpoint), the fallback
    # to a checkpoint in a rotated-past WAL segment, WAL retention across
    # a restart, and the out-of-process kill -9 test, each replayed at
    # every pinned seed.
    # RECOVER_SEEDS overrides the seed list for local bisection. The
    # sharded-parent fixture takes no seed, so it runs once.
    for seed in ${RECOVER_SEEDS:-1 7 99 4242 31337}; do
        echo "==> recover stage: RECOVER_SEED=${seed} go test -run 'TestRecoveryParity|TestRecoveryFallbackAcrossSegments|TestRecoveryRetentionAcrossRestart|TestTierdKill9Recovery' ./cmd/tierd"
        RECOVER_SEED="$seed" go test -count=1 -run 'TestRecoveryParity|TestRecoveryFallbackAcrossSegments|TestRecoveryRetentionAcrossRestart|TestTierdKill9Recovery' ./cmd/tierd
    done
    echo "==> recover stage: go test -run 'TestRecoveryParentShards4|TestWarmRepriceAfterLongDowntime' ./cmd/tierd"
    go test -count=1 -run 'TestRecoveryParentShards4|TestWarmRepriceAfterLongDowntime' ./cmd/tierd
    # Recovery replays the WAL through the window's ingest path, so the
    # dedup table's claim path, and a key chunk's generation wrapping
    # under it, are part of what it restores.
    echo "==> recover stage: go test -run 'TestDedupTableMatchesModel|TestDedupGenerationWrap|TestWindowMatchesReference' ./internal/stream"
    go test -count=1 -run 'TestDedupTableMatchesModel|TestDedupGenerationWrap|TestWindowMatchesReference' ./internal/stream
    echo "==> recover stage: go test -run 'Replay' ./internal/wal"
    go test -count=1 -run 'Replay' ./internal/wal
    # Recovery replays on two goroutines (stream.Loader): the window it
    # rebuilds must be serial IngestAt's, byte for byte, with the race
    # detector watching the hand-off between them.
    echo "==> recover stage: go test -race -run 'TestLoaderMatchesIngestAt' ./internal/stream"
    go test -race -count=1 -run 'TestLoaderMatchesIngestAt' ./internal/stream
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
    echo "==> history stage: RECOVER_SEED=${seed} go test -race -run 'TestHistoryStoreModeParity|TestHistoryEpochContinuity|TestHistoryBodiesPinned|TestReloadUnderLoad|TestFleetHistoryNamespacing' ./cmd/tierd"
    RECOVER_SEED="$seed" go test -race -count=1 \
        -run 'TestHistoryStoreModeParity|TestHistoryEpochContinuity|TestHistoryBodiesPinned|TestReloadUnderLoad|TestFleetHistoryNamespacing' ./cmd/tierd
    echo "==> history stage: RECOVER_SEED=${seed} go test -run 'TestHistoryRestoreDoubleAppend|TestHistoryUpgradeBackfill|TestTierdHistoryKill9Reload' ./cmd/tierd"
    RECOVER_SEED="$seed" go test -count=1 \
        -run 'TestHistoryRestoreDoubleAppend|TestHistoryUpgradeBackfill|TestTierdHistoryKill9Reload' ./cmd/tierd
}

docs() {
    echo "==> docs stage: go run ./cmd/docscheck"
    go run ./cmd/docscheck
}

examples() {
    out="$(mktemp)"
    trap 'rm -f "$out"' EXIT
    for dir in examples/*/; do
        echo "==> examples stage: go run ./${dir%/} | diff ${dir}stdout.golden -"
        go run "./${dir%/}" >"$out"
        diff -u "${dir}stdout.golden" "$out"
    done
}

fuzz_smoke() {
    # `go test -fuzz` accepts only one target per run, so iterate over
    # what `go test -list` prints: each package's Fuzz* names, then
    # `ok <pkg>`.
    list="$(go test -run='^$' -list='^Fuzz' ./...)"
    targets="$(printf '%s\n' "$list" |
        awk '/^Fuzz/ { t[n++] = $1 } /^ok / { for (i = 0; i < n; i++) print t[i] "@" $2; n = 0 }')"
    if [ -z "$targets" ]; then
        echo "ci.sh: go test -list found no fuzz targets" >&2
        exit 1
    fi
    for pair in $targets; do
        target="${pair%@*}" pkg="${pair#*@}"
        echo "==> fuzz ${target} (${pkg#tieredpricing/}, ${FUZZTIME})"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$pkg"
    done
}

case "${1:-}" in
"") ;;
recover | tenants | history | docs | examples)
    "$1"
    exit 0
    ;;
*)
    echo "ci.sh: unknown stage '$1' (stages: recover tenants history docs examples; no argument runs the whole gate)" >&2
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

echo "==> go list -deps ./internal/stream must not list internal/bgp"
if go list -deps ./internal/stream | grep -qx 'tieredpricing/internal/bgp'; then
    echo "ci.sh: internal/stream imports internal/bgp; quotes fall back to the snapshot's route index" >&2
    exit 1
fi

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

examples

echo "==> go test -run='^$' -bench=. -benchtime=1x ./..."
go test -run='^$' -bench=. -benchtime=1x ./...

fuzz_smoke

echo "==> ci: all gates passed"
