#!/usr/bin/env bash
# Builds perfbench from the sources beside it and runs it with the given
# arguments, from the repository root. The build, the Go caches, the
# generated inputs, results and span files all stay under the build
# directory: $CARGO_TARGET_DIR if set, else .bench_build.
#
#   bash perfbench/run.sh --workload zillow-csv --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
