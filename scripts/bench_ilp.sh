#!/usr/bin/env bash
# Run the solver-stack benchmarks (offline ILP branch-and-bound, DP(C)
# state hashing, dispatch engine) and emit a JSON report via cmd/benchjson.
#
# usage: scripts/bench_ilp.sh [out.json] [benchtime]
#
#   out.json   output path                 (default: BENCH_ILP.json)
#   benchtime  go test -benchtime value    (default: 1x — a smoke run;
#              use e.g. 3x or 2s for a stable baseline)
#
# The node-budgeted ILP benchmarks explore an identical search tree in
# both configurations (serial and parallel), so their nodes and pivots/op
# agree and ns/op ratios are meaningful even at -benchtime 1x.
#
# pipefail matters here: without it, a `go test` failure upstream of the
# pipe would vanish behind benchjson's exit status and CI would upload an
# empty report as if the bench had run.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_ILP.json}"
benchtime="${2:-1x}"

# Stage the report so a mid-pipe failure cannot truncate an existing one.
staging="$(mktemp "${TMPDIR:-/tmp}/bench_ilp.XXXXXX.json")"
trap 'rm -f "$staging"' EXIT INT TERM

go test -run xxx \
  -bench 'BenchmarkILPOffline|BenchmarkCumulativeDP|BenchmarkEngineDispatch|BenchmarkOptimizeModes' \
  -benchmem -benchtime "$benchtime" . ./internal/cumulative/ \
  | go run ./cmd/benchjson -out "$staging"

mv "$staging" "$out"
trap - EXIT INT TERM
echo "wrote $out" >&2
