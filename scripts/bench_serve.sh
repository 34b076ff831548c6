#!/usr/bin/env bash
# Run the ingest-path benchmarks (batched admission, one journal write and
# fsync per batch; zero-alloc event decode) and emit a JSON report via
# cmd/benchjson.
#
# usage: scripts/bench_serve.sh [out.json] [benchtime]
#
#   out.json   output path                 (default: BENCH_SERVE.json)
#   benchtime  go test -benchtime value    (default: 1x — a smoke run;
#              use e.g. 2s for a stable baseline)
#
# BenchmarkAdmitSerial vs BenchmarkAdmitGroupCommit carry the acceptance
# numbers as custom metrics: at conc ≥ 8 the group-commit path must show
# fsyncs/admit < 0.25 and ≥ 3x the serial admits/s. These run real fsyncs,
# so use a benchtime of at least 2s (and a quiet disk) for baselines.
#
# pipefail matters here: without it, a `go test` failure upstream of the
# pipe would vanish behind benchjson's exit status and CI would upload an
# empty report as if the bench had run.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_SERVE.json}"
benchtime="${2:-1x}"

# Stage the report so a mid-pipe failure cannot truncate an existing one.
staging="$(mktemp "${TMPDIR:-/tmp}/bench_serve.XXXXXX.json")"
trap 'rm -f "$staging"' EXIT INT TERM

go test -run xxx \
  -bench 'BenchmarkAdmitSerial|BenchmarkAdmitGroupCommit|BenchmarkDecodeEvent' \
  -benchmem -benchtime "$benchtime" \
  ./internal/runtime/ ./internal/serve/ \
  | go run ./cmd/benchjson -out "$staging"

mv "$staging" "$out"
trap - EXIT INT TERM
echo "wrote $out" >&2
