#!/usr/bin/env bash
# Builds the benchmark harness and the gsuserve daemon from the checkout's
# sources, then runs the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact and the Go build
# cache stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/ and the guardedop module are required)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/bin/" . guardedop/cmd/gsuserve)
exec "$build/bin/perfbench" -serve-bin "$build/bin/gsuserve" -out-dir "$build" "$@"
