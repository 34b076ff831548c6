#!/usr/bin/env bash
# Run the churn soak against the long-running scheduler runtime and write
# the JSON/CSV artifact. The soak replays deterministic admission-control
# event tapes (adds, removes, overload windows) and fails if an admitted
# set misses a deadline outside a declared degraded window.
#
# usage: scripts/soak.sh [outdir] [events]
#
#   outdir  artifact directory          (default: churnsoak)
#   events  admission events per tape   (default: 1500 — the CI short
#           soak; use 10000 for the full endurance run, or more)
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-churnsoak}"
events="${2:-1500}"

# Stage into a temp dir so a failed run never leaves a partial artifact
# where CI (or a human) might mistake it for a finished one.
staging="$(mktemp -d "${TMPDIR:-/tmp}/soak.XXXXXX")"
trap 'rm -rf "$staging"' EXIT INT TERM

go run ./cmd/paperbench churn -events "$events" -csv "$staging"

mkdir -p "$outdir"
mv "$staging"/churn.json "$staging"/churn.csv "$outdir"/
echo "soak artifact: $outdir/churn.json"
