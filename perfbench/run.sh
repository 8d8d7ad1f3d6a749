#!/usr/bin/env bash
# Builds the benchmark harness and td-serve from this checkout's sources,
# then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload orient-regular --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binaries, traces) stays
# under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(
	cd "$here"
	go build -o "$out/perfbench" .
	go build -o "$out/td-serve" tokendrop/cmd/td-serve
) >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
