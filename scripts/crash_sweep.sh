#!/usr/bin/env bash
# Run the crash-point sweep: build impserve, then re-execute it with a
# kill at every fsync boundary of a seeded churn-tape run and verify each
# recovery reaches the uncrashed digest. This is the mechanical proof
# behind the crash-only durable store (see docs/ALGORITHMS.md §10); a
# nonzero exit means some kill point did NOT recover bit-identically.
#
# usage: scripts/crash_sweep.sh [out.json] [events] [seed]
#
#   out.json  sweep artifact path        (default: crash_sweep.json)
#   events    churn-tape admission events (default: 12; more events mean
#             more fsync boundaries, i.e. a denser sweep)
#   seed      tape + runtime seed         (default: 1)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-crash_sweep.json}"
events="${2:-12}"
seed="${3:-1}"

workdir="$(mktemp -d "${TMPDIR:-/tmp}/crash_sweep.XXXXXX")"
trap 'rm -rf "$workdir"' EXIT INT TERM

go build -o "$workdir/impserve" ./cmd/impserve

"$workdir/impserve" -sweep -gen "$events" -seed "$seed" \
  -dir "$workdir/sweep" -sweep-out "$workdir/sweep.json"

mv "$workdir/sweep.json" "$out"
echo "crash sweep artifact: $out"
