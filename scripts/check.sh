#!/bin/sh
# The canonical check, and the one place its lists live: the race
# package list, the fuzz target list and every step's timeout. The
# Makefile's check/race/fuzz-smoke/soak targets all call this script.
#
#   scripts/check.sh                 every step below, in order
#   scripts/check.sh STEP [FUZZTIME] one step: tier1 | race | fuzz |
#                                    cluster-smoke | chaos-soak | ingest-soak
#
# FUZZTIME (default 10s) is the slice each fuzz target runs for.
# Every test step carries an explicit timeout so a hung scatter-gather
# (a deadlocked retry or an unpropagated cancellation) fails the check
# instead of wedging it.
set -eu

# The packages the parallel query router exercises concurrently, plus
# the durability subsystem (group commit shares journal state across
# writers), the store layer whose fault-matrix tests hammer the
# retry/breaker machinery from concurrent clients, the arena
# B+tree whose borrowed-slice reads the router runs in parallel, the
# network transport (pooled conns, streamed replies and the
# cancellation watchdog all cross goroutines); their stress tests must
# stay race-clean.
RACE_PKGS="./internal/sharding/... ./internal/query/... ./internal/storage/... ./internal/wal/... ./internal/core/... ./internal/btree/... ./internal/wire/... ./internal/netconn/..."

# package:target. BSON decoding is total (crash recovery feeds it torn
# and bit-flipped journal bytes), key encoding preserves the logical
# BSON order (every index range scan rests on it), journal recovery
# never panics or replays a corrupt frame, the arena B+tree matches a
# sorted-map oracle under arbitrary operation streams and its iterator
# — Next interleaved with forward Seeks that stay in the leaf, cross to
# the next one or descend from the root — a sorted-slice one, the wire
# protocol's frame, message, insert and aggregate decoders never panic
# or over-allocate on hostile network bytes, the executor's typed
# reads of stored bytes — predicates, top-k sort keys, aggregate keys —
# never panic on damaged documents and
# answer exactly what decoding the document first answers, an ordered
# execution — sort keys read from the index or from the document —
# answers exactly what stable-sorting its unordered matches does, and the
# write path, which never decodes either, rests on the same footing:
# bson.Validate (all that stands between wire or journal bytes and the
# store) accepts exactly what Unmarshal accepts and knows Marshal's form
# from a liberal encoder's, and the index keys, shard-key tuples and
# summary cells read from stored bytes on insert, split and migration
# are byte for byte the ones built from the decoded document. The
# router's per-query front end — bounds, plan-cache shape, segments and
# residuals, targets — answers exactly what the implementation it
# replaced answers, and prunes exactly the shards a scan of the
# documents finds empty in the query's cells. The bytes every write
# path stores, appended straight from the record, are byte for byte what marshalling
# the boxed reference document gives, and both refuse the same records.
FUZZ_TARGETS="bson:FuzzDocumentRoundTrip bson:FuzzValidate keyenc:FuzzKeyOrdering wal:FuzzFrameRecover btree:FuzzTreeOps btree:FuzzIteratorSeek wire:FuzzFrameDecode wire:FuzzInsertDecode wire:FuzzAggregateDecode query:FuzzRawMatch query:FuzzOrderedExecution index:FuzzEntryKeyRaw sharding:FuzzShardKeyRaw sharding:FuzzFrontEnd core:FuzzEncodeRecord core:FuzzContainedCells core:FuzzKeyRanges"

step() {
    case "$1" in
    tier1)
        go build ./...
        go test -timeout 180s ./...
        go vet ./...
        # The root module is gofmt-clean (benchmark/ is its own module).
        unformatted=$(gofmt -l ./*.go cmd examples internal)
        if [ -n "$unformatted" ]; then
            echo "check.sh: gofmt -l prints:" >&2
            echo "$unformatted" >&2
            exit 1
        fi
        # The benchmark module compiles against product APIs
        # (Options().QueryConfig, RoutedResult.ShardsPruned,
        # query.ExecuteOpts, RemoteConn.Query, Cluster.InsertBatch, ...):
        # a product change that breaks one fails here, not in the
        # benchmark pipeline.
        (cd benchmark && GOWORK=off go vet ./... && GOWORK=off go test -timeout 120s ./...)
        ;;
    race)
        # shellcheck disable=SC2086
        go test -race -timeout 300s $RACE_PKGS
        ;;
    fuzz)
        for t in $FUZZ_TARGETS; do
            go test -timeout 120s "./internal/${t%%:*}" -fuzz "${t##*:}" -fuzztime "$FUZZTIME"
        done
        ;;
    cluster-smoke)
        # Differential smoke of the real multi-process cluster: two
        # stshardd daemons + one strouterd must answer the paper's
        # queries byte-identically to a single in-process store.
        timeout 120 sh scripts/cluster-smoke.sh
        ;;
    chaos-soak)
        # Seeded deterministic chaos soak: kill/restart daemon cycling,
        # link faults and overload bursts, with every routed reply
        # byte-verified or explicitly partial/shed and restarts
        # fingerprint-checked.
        timeout 300 sh scripts/chaos-soak.sh
        ;;
    ingest-soak)
        # Crash-safe continuous ingest: idempotent write batches through
        # the write-enabled router while daemons are SIGKILLed mid-ingest
        # and recovered from their durable directories; bursts must shed,
        # every process must fingerprint-converge to the in-process
        # reference, and whole replicas are byte-verified over the wire
        # read path.
        timeout 420 sh scripts/ingest-soak.sh
        ;;
    *)
        echo "check.sh: unknown step '$1'" >&2
        exit 2
        ;;
    esac
}

FUZZTIME=${2:-10s}
set -x
if [ $# -eq 0 ]; then
    for s in tier1 race fuzz cluster-smoke chaos-soak ingest-soak; do
        step "$s"
    done
else
    step "$1"
fi
