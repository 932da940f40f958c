#!/bin/sh
# chaos-soak: seeded deterministic kill/fault/overload soak of the real
# multi-process cluster.
#
# Builds stshardd, strouterd and the stchaos orchestrator, then lets
# stchaos stand up two shard daemons (behind fault-injecting proxies)
# and a router, drive mixed query load, and run CYCLES rounds of
# SIGKILL/SIGTERM daemon cycling, link faults and 4x overload bursts.
# stchaos exits non-zero on any invariant violation: a complete-looking
# wrong reply, a dirty SIGTERM exit, a restarted daemon with a
# different content fingerprint, an unshed burst, an unbounded admitted
# latency, or leaked in-flight requests/goroutines after the soak.
#
# The whole schedule derives from SEED, so a failure replays exactly;
# override SEED/CYCLES/RECORDS/SHARDS/PORT to vary the run.
set -eu

SEED=${SEED:-1}
CYCLES=${CYCLES:-20}
RECORDS=${RECORDS:-4000}
SHARDS=${SHARDS:-4}
PORT=${PORT:-7821}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/" ./cmd/stshardd ./cmd/strouterd ./cmd/stchaos

"$TMP/stchaos" \
    -shardd "$TMP/stshardd" -routerd "$TMP/strouterd" \
    -seed "$SEED" -cycles "$CYCLES" -records "$RECORDS" -shards "$SHARDS" \
    -port "$PORT"

echo "chaos-soak: OK ($CYCLES cycles, seed $SEED, $RECORDS records, $SHARDS shards)"
