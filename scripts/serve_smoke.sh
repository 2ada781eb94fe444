#!/usr/bin/env bash
# CI smoke gate for the gsuserve daemon (docs/SERVING.md):
#
#   1. build the daemon race-instrumented (any data race aborts it),
#   2. boot it and wait for readiness,
#   3. replay a deterministic loadgen script — fails on any 5xx or
#      transport error,
#   4. force a saturation burst against a one-slot limiter and assert
#      shedding works: at least one 429 (with Retry-After), zero 5xx,
#   5. SIGTERM and assert a clean drain (exit 0, "drained" logged),
#   6. boot a fresh daemon and SIGTERM it right after its first /readyz
#      200: the signal handler is installed before the listener, so even
#      that early signal must drain cleanly.
#
# Everything runs on loopback with dynamically assigned ports.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)/gsuserve
LOG=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

echo "== building (race-instrumented) =="
go build -race -o "$BIN" ./cmd/gsuserve
export GORACE="halt_on_error=1"

# start_daemon <logfile> <extra flags...>; sets DAEMON_PID and
# DAEMON_ADDR. (Must not run in a command substitution: the background
# job has to belong to this shell so SIGTERM/wait can reach it.)
start_daemon() {
  local log=$1; shift
  "$BIN" -addr 127.0.0.1:0 "$@" >>"$log" 2>&1 &
  DAEMON_PID=$!
  DAEMON_ADDR=""
  for _ in $(seq 1 100); do
    DAEMON_ADDR=$(sed -n 's/.*"msg":"listening","addr":"\(127\.0\.0\.1:[0-9]*\)".*/\1/p' "$log" | head -1)
    [ -n "$DAEMON_ADDR" ] && break
    sleep 0.1
  done
  if [ -z "$DAEMON_ADDR" ]; then
    echo "daemon never announced its address" >&2
    cat "$log" >&2
    exit 1
  fi
}

echo "== boot + readiness =="
start_daemon "$LOG/serve.log" -workers 1
ADDR=$DAEMON_ADDR
MAIN_PID=$DAEMON_PID
for _ in $(seq 1 50); do
  if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "http://$ADDR/healthz" >/dev/null
curl -fsS "http://$ADDR/readyz" >/dev/null
echo "ready on $ADDR"

echo "== loadgen replay (no 5xx, no transport errors) =="
"$BIN" -loadgen -target "http://$ADDR" -n 200 -distinct 4 -seed 11 -concurrency 8

echo "== metrics exposition =="
curl -fsS "http://$ADDR/metrics" -o "$LOG/metrics.txt"
grep -q '^gsu_serve_requests_total' "$LOG/metrics.txt" \
  || { echo "metrics endpoint missing serve counters" >&2; exit 1; }

echo "== graceful drain (SIGTERM) =="
kill -TERM "$MAIN_PID"
wait "$MAIN_PID" || { echo "daemon exited nonzero on SIGTERM" >&2; cat "$LOG/serve.log" >&2; exit 1; }
grep -q '"msg":"drained"' "$LOG/serve.log" \
  || { echo "daemon did not report a clean drain" >&2; cat "$LOG/serve.log" >&2; exit 1; }

echo "== forced saturation burst (429 + Retry-After, zero 5xx) =="
start_daemon "$LOG/burst.log" -workers 1 -max-concurrent 1 -queue 1
BURST_ADDR=$DAEMON_ADDR
BURST_PID=$DAEMON_PID
CODES=$LOG/burst_codes
: >"$CODES"
# 16 concurrent distinct heavy queries against a one-slot limiter: the
# slot and the single queue place admit two, the rest must shed fast.
CURL_PIDS=()
for i in $(seq 1 16); do
  curl -s -o /dev/null -w '%{http_code} retry-after=%header{retry-after}\n' \
    -X POST -H 'Content-Type: application/json' \
    -d "{\"params\":{\"lambda\":0.02${i}},\"points\":1200}" \
    "http://$BURST_ADDR/v1/curve" >>"$CODES" &
  CURL_PIDS+=($!)
done
wait "${CURL_PIDS[@]}" || true

if grep -qE '^5[0-9][0-9] ' "$CODES"; then
  echo "saturation burst produced 5xx responses:" >&2
  cat "$CODES" >&2
  exit 1
fi
SHED=$(grep -c '^429 ' "$CODES" || true)
OK=$(grep -c '^200 ' "$CODES" || true)
if [ "$SHED" -eq 0 ]; then
  echo "saturation burst shed nothing (no 429s):" >&2
  cat "$CODES" >&2
  exit 1
fi
if [ "$OK" -eq 0 ]; then
  echo "saturation burst admitted nothing:" >&2
  cat "$CODES" >&2
  exit 1
fi
if grep '^429 ' "$CODES" | grep -vq 'retry-after=[0-9]'; then
  echo "429 responses missing Retry-After" >&2; cat "$CODES" >&2; exit 1
fi
echo "burst: $OK completed, $SHED shed"

kill -TERM "$BURST_PID"
wait "$BURST_PID" || { echo "burst daemon exited nonzero on SIGTERM" >&2; cat "$LOG/burst.log" >&2; exit 1; }
grep -q '"msg":"drained"' "$LOG/burst.log" \
  || { echo "burst daemon did not drain cleanly" >&2; cat "$LOG/burst.log" >&2; exit 1; }

echo "== SIGTERM right after the first /readyz 200 =="
start_daemon "$LOG/early.log" -workers 1
EARLY_ADDR=$DAEMON_ADDR
EARLY_PID=$DAEMON_PID
until curl -fsS "http://$EARLY_ADDR/readyz" >/dev/null 2>&1; do sleep 0.01; done
kill -TERM "$EARLY_PID"
wait "$EARLY_PID" || { echo "early-signalled daemon exited nonzero" >&2; cat "$LOG/early.log" >&2; exit 1; }
grep -q '"msg":"drained"' "$LOG/early.log" \
  || { echo "early-signalled daemon did not drain" >&2; cat "$LOG/early.log" >&2; exit 1; }

if grep -q "DATA RACE" "$LOG"/*.log; then
  echo "race detector fired:" >&2
  cat "$LOG"/*.log >&2
  exit 1
fi

echo "serve smoke: OK"
