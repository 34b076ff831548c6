#!/usr/bin/env bash
# Builds the benchmark from this checkout into .bench_build, then runs one
# workload:
#
#   bash perfbench/run.sh --workload admit-dense --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the Go toolchain writes
# (build cache, temporary files, telemetry) stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an nprt checkout (go.mod, internal or perfbench/go.mod missing)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOENV=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
