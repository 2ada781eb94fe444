#!/usr/bin/env bash
# Record gsuserve's answers to a fixed request script: every solve route
# by POST, the parameter routes also by GET, with `{}`, explicit
# defaults, the -1 sentinel, timeout_ms, and the default and both edges
# of points, grid_points and samples. Each request prints one header line
# and one "<status> <body>" line to stdout, so the answers of two builds
# compare with a plain diff:
#
#   bash scripts/serve_answers.sh > new.txt
#   (cd <other checkout> && bash scripts/serve_answers.sh) > old.txt
#   diff old.txt new.txt
#
# The daemon runs on loopback with a free port, 2 workers and a 300 s
# route budget, so no answer depends on machine speed. A full run takes
# about a minute on two cores (the samples=2048 propagation dominates).
set -euo pipefail

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/gsuserve" ./cmd/gsuserve
"$TMP/gsuserve" -addr 127.0.0.1:0 -workers 2 -route-timeout 300s -trace-ring 0 >"$TMP/serve.log" 2>&1 &
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/.*"msg":"listening","addr":"\(127\.0\.0\.1:[0-9]*\)".*/\1/p' "$TMP/serve.log" | head -1)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
if [ -z "$ADDR" ]; then
  echo "daemon never announced its address" >&2
  cat "$TMP/serve.log" >&2
  exit 1
fi
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done

DEFAULTS='{"theta":10000,"lambda":1200,"mu_new":1e-4,"mu_old":1e-8,"coverage":0.95,"p_ext":0.1,"alpha":6000,"beta":6000}'
SPEC='{"name":"paper-baseline","theta":10000,"coverage":0.95,"alpha":6000,"beta":6000,"guard":{"policy":"global"},"nodes":[{"name":"P1","lambda":1200,"p_ext":0.1,"mu_old":1e-8,"upgrade":{"mu_new":1e-4}},{"name":"P2","lambda":1200,"p_ext":0.1,"mu_old":1e-8}]}'

# One request per line: METHOD TARGET [BODY]; bodies hold no spaces.
while read -r method target body; do
  [ -z "$method" ] && continue
  echo "== $method $target ${body:-}"
  args=(-sS -o "$TMP/body" -w '%{http_code}' -X "$method")
  [ -n "${body:-}" ] && args+=(-H 'Content-Type: application/json' --data-binary "$body")
  status=$(curl "${args[@]}" "http://$ADDR$target")
  echo "$status $(cat "$TMP/body")"
done <<EOF
GET /healthz
GET /readyz
POST /v1/curve {}
POST /v1/curve {"params":$DEFAULTS,"points":20}
POST /v1/curve {"points":0}
POST /v1/curve {"points":1}
POST /v1/curve {"points":2048}
POST /v1/curve {"points":2049}
POST /v1/curve {"points":-1}
POST /v1/curve {"points":8,"timeout_ms":60000}
POST /v1/curve {"points":8,"timeout_ms":-5}
POST /v1/curve {"params":{"mu_old":-1},"points":8}
POST /v1/curve {"params":{"mu_new":-1},"points":8}
POST /v1/curve {"params":{"coverage":-1},"points":8}
POST /v1/curve {"params":{"lambda":0.03},"points":4}
POST /v1/curve {"params":{"theta":5000,"mu_new":2e-4,"p_ext":0.2},"points":10}
POST /v1/curve {"params":{"lambda":105000},"points":6}
POST /v1/curve {"params":{"theta":-1}}
POST /v1/curve {"params":{"p_ext":-1}}
POST /v1/curve {"params":{"coverage":1.5}}
GET /v1/curve
GET /v1/curve?points=4&lambda=0.03
GET /v1/curve?points=1
GET /v1/curve?points=2048
GET /v1/curve?points=2049
GET /v1/curve?points=8&mu_old=-1&timeout_ms=60000
GET /v1/curve?theta=5000&mu_new=2e-4&p_ext=0.2&points=10
GET /v1/curve?theta=10000&lambda=1200&mu_new=1e-4&mu_old=1e-8&coverage=0.95&p_ext=0.1&alpha=6000&beta=6000&points=20
PUT /v1/curve {}
POST /v1/optimize {}
POST /v1/optimize {"params":$DEFAULTS,"grid_points":20}
POST /v1/optimize {"grid_points":1}
POST /v1/optimize {"grid_points":2}
POST /v1/optimize {"grid_points":2048}
POST /v1/optimize {"grid_points":2049}
POST /v1/optimize {"grid_points":10,"timeout_ms":60000}
POST /v1/optimize {"params":{"mu_new":-1}}
POST /v1/optimize {"params":{"coverage":-1,"theta":5000}}
GET /v1/optimize
GET /v1/optimize?grid_points=2
GET /v1/optimize?grid_points=10&coverage=-1
POST /v1/propagate {}
POST /v1/propagate {"params":$DEFAULTS,"shape":2,"rate":20000,"samples":50,"seed":1,"grid_points":20}
POST /v1/propagate {"samples":1}
POST /v1/propagate {"samples":2}
POST /v1/propagate {"samples":2048,"grid_points":2}
POST /v1/propagate {"samples":2049}
POST /v1/propagate {"samples":2,"grid_points":1}
POST /v1/propagate {"samples":2,"grid_points":2}
POST /v1/propagate {"samples":2,"grid_points":2048}
POST /v1/propagate {"samples":2,"grid_points":2049}
POST /v1/propagate {"shape":3,"rate":30000,"samples":4,"seed":7}
POST /v1/propagate {"samples":4,"seed":3,"timeout_ms":60000}
POST /v1/propagate {"shape":2}
POST /v1/propagate {"params":{"mu_new":-1}}
POST /v1/propagate {"params":{"mu_new":-1},"shape":2,"rate":20000,"samples":4}
POST /v1/propagate {"params":{"mu_old":-1,"theta":5000},"samples":4,"grid_points":8}
GET /v1/propagate?samples=4&seed=3&grid_points=8
GET /v1/propagate?samples=2&mu_old=-1
POST /v1/scenario/curve {"spec":$SPEC}
POST /v1/scenario/curve {"spec":$SPEC,"points":6}
POST /v1/scenario/curve {"spec":$SPEC,"points":1}
POST /v1/scenario/curve {"spec":$SPEC,"points":2048}
POST /v1/scenario/curve {"spec":$SPEC,"points":2049}
POST /v1/scenario/curve {"spec":$SPEC,"points":6,"timeout_ms":60000}
POST /v1/scenario/curve {"points":4}
POST /v1/scenario/curve {"spec":{"name":"x","theta":-1}}
GET /v1/scenario/curve
EOF
