#!/bin/sh
# Server smoke test: cold-start jeddd on the tiny workload, save a
# snapshot, query it with jeddq over the socket, shut it down, then
# warm-start from the snapshot and check the answers agree.  A third
# run starts jeddd --live, sends one update, and checks that the reply
# names generation 1, that points-to grew, and that the server now
# serves the universe hash the reply names.  Exercises the full
# analyze/serve/query/persist/update loop without the test harness.
set -eu

SOCK="$(mktemp -u /tmp/jeddd-smoke-XXXXXX.sock)"
SNAP="$(mktemp /tmp/jeddd-smoke-XXXXXX.snap)"
trap 'kill $JEDDD_PID 2>/dev/null || true; rm -f "$SOCK" "$SNAP"' EXIT

JEDDD="dune exec bin/jeddd_main.exe --"
JEDDQ="dune exec bin/jeddq_main.exe --"

dune build bin/jeddd_main.exe bin/jeddq_main.exe

wait_for_socket() {
    for _ in $(seq 1 100); do
        [ -S "$SOCK" ] && return 0
        sleep 0.1
    done
    echo "serve_smoke: server did not come up" >&2
    exit 1
}

echo "== cold start =="
$JEDDD -s "$SOCK" -b tiny --save "$SNAP" &
JEDDD_PID=$!
wait_for_socket

$JEDDQ -s "$SOCK" ping
$JEDDQ -s "$SOCK" version
COLD_COUNT=$($JEDDQ -s "$SOCK" count pt)
COLD_PT=$($JEDDQ -s "$SOCK" pointsto 0)
$JEDDQ -s "$SOCK" stats >/dev/null
$JEDDQ -s "$SOCK" shutdown
wait $JEDDD_PID

echo "== warm start from snapshot =="
[ -s "$SNAP" ] || { echo "serve_smoke: snapshot missing" >&2; exit 1; }
$JEDDD -s "$SOCK" --snapshot "$SNAP" &
JEDDD_PID=$!
wait_for_socket

WARM_COUNT=$($JEDDQ -s "$SOCK" count pt)
WARM_PT=$($JEDDQ -s "$SOCK" pointsto 0)
$JEDDQ -s "$SOCK" shutdown
wait $JEDDD_PID

[ "$COLD_COUNT" = "$WARM_COUNT" ] || {
    echo "serve_smoke: count mismatch: cold=$COLD_COUNT warm=$WARM_COUNT" >&2
    exit 1
}
[ "$COLD_PT" = "$WARM_PT" ] || {
    echo "serve_smoke: pointsto mismatch: cold=$COLD_PT warm=$WARM_PT" >&2
    exit 1
}

echo "== live update =="
$JEDDD -s "$SOCK" -b tiny --live &
JEDDD_PID=$!
wait_for_socket

UPDATE=$($JEDDQ -s "$SOCK" raw \
    '{"verb":"update","edit":{"op":"add_alloc","var":0,"cls":0}}')
LIVE_COUNT=$($JEDDQ -s "$SOCK" count pt)
STATS=$($JEDDQ -s "$SOCK" stats)
$JEDDQ -s "$SOCK" shutdown
wait $JEDDD_PID

field() { printf '%s' "$1" | sed -n "s/.*\"$2\":\"\{0,1\}\([0-9a-z]*\).*/\1/p"; }
fail_live() { echo "serve_smoke: live update: $1: $UPDATE" >&2; exit 1; }
[ "$(field "$UPDATE" updated)" = true ] || fail_live "not updated"
[ "$(field "$UPDATE" generation)" = 1 ] || fail_live "not generation 1"
case "$UPDATE" in *'"published"'*) fail_live "reply has a published key" ;; esac
[ "$(field "$LIVE_COUNT" tuples)" -gt "$(field "$COLD_COUNT" tuples)" ] ||
    fail_live "points-to did not grow ($COLD_COUNT -> $LIVE_COUNT)"
HASH=$(field "$UPDATE" universe_hash)
[ -n "$HASH" ] && [ "$(field "$STATS" universe_hash)" = "$HASH" ] ||
    fail_live "stats serve another universe: $STATS"

echo "serve_smoke: OK ($COLD_COUNT; live $LIVE_COUNT)"
