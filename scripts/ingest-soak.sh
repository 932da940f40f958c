#!/bin/sh
# ingest-soak: crash-safe continuous-ingest soak of the real
# multi-process cluster.
#
# Builds stshardd, strouterd and the stchaos orchestrator, then lets
# stchaos stand up two durable shard daemons and a write-enabled
# router (HMAC-authenticated handshakes throughout), stream idempotent
# client batches through the router from concurrent workers, and run
# CYCLES rounds of SIGKILL-mid-ingest/restart-from-directory plus
# 16x-concurrency write bursts against a one-slot admission gate.
# stchaos -ingest exits non-zero on any invariant violation: a SIGKILL
# that finds no batch in flight, a batch that never converges, a
# restarted or SIGTERM'd daemon whose content fingerprint disagrees
# with the in-process reference, a whole-replica read that is not
# byte-identical to the reference, an unbounded admitted write, a burst
# that never sheds, a dirty daemon exit, or leaked goroutines in the
# orchestrator.
#
# The whole schedule derives from SEED, so a failure replays exactly;
# override SEED/CYCLES/RECORDS/INGEST_RECORDS/SHARDS/PORT to vary.
set -eu

SEED=${SEED:-1}
CYCLES=${CYCLES:-20}
RECORDS=${RECORDS:-4000}
INGEST_RECORDS=${INGEST_RECORDS:-60000}
SHARDS=${SHARDS:-4}
PORT=${PORT:-7831}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/" ./cmd/stshardd ./cmd/strouterd ./cmd/stchaos

"$TMP/stchaos" -ingest \
    -shardd "$TMP/stshardd" -routerd "$TMP/strouterd" \
    -seed "$SEED" -cycles "$CYCLES" -records "$RECORDS" \
    -ingest-records "$INGEST_RECORDS" -shards "$SHARDS" \
    -port "$PORT" -auth-secret ingest-soak-ci

echo "ingest-soak: OK ($CYCLES cycles, seed $SEED, $RECORDS+$INGEST_RECORDS records, $SHARDS shards)"
