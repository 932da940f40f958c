#!/bin/sh
# cluster-smoke: differential test of the real multi-process cluster.
#
# Starts two stshardd daemons (splitting the shards between them) and
# one strouterd on localhost, then runs the paper's eight queries
# three ways — in-process, through the network shard boundary
# (stquery -addrs), and through the router daemon (stquery -router) —
# and requires the -digest output (result count + SHA-256 over the
# returned documents) to be byte-identical across all three — plain,
# limited and ordered, and for the pushed-down aggregates.
#
# Scale is kept small so the whole thing finishes in seconds;
# override with RECORDS/SHARDS/PORT.
set -eu

RECORDS=${RECORDS:-6000}
SHARDS=${SHARDS:-4}
PORT=${PORT:-7731}

TMP=$(mktemp -d)
PIDS=""
FAILED=1
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    if [ "$FAILED" -ne 0 ]; then
        echo "--- daemon logs ---" >&2
        cat "$TMP"/*.log >&2 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/" ./cmd/stshardd ./cmd/strouterd ./cmd/stquery

# Split the shards across the two daemons: even ids on one, odd on the
# other.
EVEN=""; ODD=""
i=0
while [ "$i" -lt "$SHARDS" ]; do
    if [ $((i % 2)) -eq 0 ]; then EVEN="$EVEN,$i"; else ODD="$ODD,$i"; fi
    i=$((i + 1))
done
EVEN=${EVEN#,}; ODD=${ODD#,}

ADDR1=127.0.0.1:$PORT
ADDR2=127.0.0.1:$((PORT + 1))
RADDR=127.0.0.1:$((PORT + 2))

"$TMP/stshardd" -addr "$ADDR1" -serve "$EVEN" -records "$RECORDS" -shards "$SHARDS" >"$TMP/shard1.log" 2>&1 &
PIDS="$PIDS $!"
"$TMP/stshardd" -addr "$ADDR2" -serve "$ODD" -records "$RECORDS" -shards "$SHARDS" >"$TMP/shard2.log" 2>&1 &
PIDS="$PIDS $!"
"$TMP/strouterd" -addr "$RADDR" -addrs "$ADDR1,$ADDR2" -records "$RECORDS" -shards "$SHARDS" >"$TMP/router.log" 2>&1 &
PIDS="$PIDS $!"

# The clients wait for refused dials themselves (-addrs/-router retry
# until the daemons bind), so no sleep/poll loop is needed here.
"$TMP/stquery" -records "$RECORDS" -shards "$SHARDS" -digest >"$TMP/local.out" 2>"$TMP/local.log"
"$TMP/stquery" -records "$RECORDS" -shards "$SHARDS" -addrs "$ADDR1,$ADDR2" -digest >"$TMP/addrs.out" 2>"$TMP/addrs.log"
"$TMP/stquery" -router "$RADDR" -digest >"$TMP/router.out" 2>"$TMP/thin.log"

echo "local vs network shard boundary (-addrs):"
diff "$TMP/local.out" "$TMP/addrs.out"
echo "local vs router daemon (-router):"
diff "$TMP/local.out" "$TMP/router.out"

# The aggregate pushdown differential: the merged aggregate's
# canonical digest must be byte-identical whether shards compute their
# partials in process, across the two shard daemons (one Query frame
# carrying the aggregate spec, one QueryReply frame back), or behind the
# router daemon's client op.
for AGG in "-count" "-heatmap 6"; do
    # shellcheck disable=SC2086
    "$TMP/stquery" -records "$RECORDS" -shards "$SHARDS" $AGG -digest >"$TMP/agg-local.out" 2>>"$TMP/local.log"
    # shellcheck disable=SC2086
    "$TMP/stquery" -records "$RECORDS" -shards "$SHARDS" -addrs "$ADDR1,$ADDR2" $AGG -digest >"$TMP/agg-addrs.out" 2>>"$TMP/addrs.log"
    # shellcheck disable=SC2086
    "$TMP/stquery" -router "$RADDR" $AGG -digest >"$TMP/agg-router.out" 2>>"$TMP/thin.log"
    echo "aggregate $AGG: local vs -addrs vs -router:"
    diff "$TMP/agg-local.out" "$TMP/agg-addrs.out"
    diff "$TMP/agg-local.out" "$TMP/agg-router.out"
    [ "$(wc -l <"$TMP/agg-local.out")" -eq 8 ]
    awk '{ for (i = 1; i <= NF; i++) if ($i ~ /^n=/) { sub("n=", "", $i); if ($i + 0 > 0) found = 1 } }
         END { exit !found }' "$TMP/agg-local.out"
done

# The limited differential: a limited query walks its shards one after
# another — a natural-order quota, or an ordered bound carried in each
# Query frame — and its answer must be byte-identical in process,
# across the shard daemons and behind the router daemon.
for LIM in "-limit 25" "-limit 25 -sort date" "-limit 25 -sort -date"; do
    # shellcheck disable=SC2086
    "$TMP/stquery" -records "$RECORDS" -shards "$SHARDS" $LIM -digest >"$TMP/lim-local.out" 2>>"$TMP/local.log"
    # shellcheck disable=SC2086
    "$TMP/stquery" -records "$RECORDS" -shards "$SHARDS" -addrs "$ADDR1,$ADDR2" $LIM -digest >"$TMP/lim-addrs.out" 2>>"$TMP/addrs.log"
    # shellcheck disable=SC2086
    "$TMP/stquery" -router "$RADDR" $LIM -digest >"$TMP/lim-router.out" 2>>"$TMP/thin.log"
    echo "limited $LIM: local vs -addrs vs -router:"
    diff "$TMP/lim-local.out" "$TMP/lim-addrs.out"
    diff "$TMP/lim-local.out" "$TMP/lim-router.out"
    [ "$(wc -l <"$TMP/lim-local.out")" -eq 8 ]
    awk '{ for (i = 1; i <= NF; i++) if ($i ~ /^n=/) { sub("n=", "", $i); if ($i + 0 > 0) found = 1 } }
         END { exit !found }' "$TMP/lim-local.out"
done

# Guard against a vacuous pass: all eight queries must have run and at
# least one must have returned documents.
[ "$(wc -l <"$TMP/local.out")" -eq 8 ]
awk '{ for (i = 1; i <= NF; i++) if ($i ~ /^n=/) { sub("n=", "", $i); if ($i + 0 > 0) found = 1 } }
     END { exit !found }' "$TMP/local.out"

FAILED=0
echo "cluster-smoke: OK ($SHARDS shards across 2 daemons + router, $RECORDS records, byte-identical)"
