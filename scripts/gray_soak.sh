#!/usr/bin/env bash
# Run the cluster gray-failure soak and write the JSON/CSV artifact. The
# soak plays a deterministic churn tape across sharded clusters while a
# seeded brownout plan makes one primary drive at a time SLOW — every op
# still succeeds, just far over the latency SLO, the failure mode
# fail-stop health checks cannot see. Each width drives the tape four
# times: signal-armed serial twice and concurrent once (all three must
# agree exactly — per-tick digests, owners, promotion/shed/miss counts),
# plus one blind control drive with the latency signal off. The soak
# invariants (accepted ⇒ live, one owner per task, one primary per
# shard, zero clean misses) are checked after every tick of every
# drive, so rows carry no lost/orphan columns. The run fails on any
# violation, any divergence, a brownout absorbed without promotion
# (replicas > 0), or the armed drive missing more deadlines than the
# blind one.
#
# usage: scripts/gray_soak.sh [outdir] [events] [replicas]
#
#   outdir    artifact directory        (default: graysoak)
#   events    churn events per tape     (default: 1200 — the CI soak;
#             raise for a denser brownout schedule)
#   replicas  synchronous followers per shard (default: 1 — promotion is
#             the headline containment path; 0 exercises fencing only)
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-graysoak}"
events="${2:-1200}"
replicas="${3:-1}"

# Stage into a temp dir so a failed run never leaves a partial artifact
# where CI (or a human) might mistake it for a finished one.
staging="$(mktemp -d "${TMPDIR:-/tmp}/gray_soak.XXXXXX")"
trap 'rm -rf "$staging"' EXIT INT TERM

go run ./cmd/paperbench gray -events "$events" -replicas "$replicas" -csv "$staging"

mkdir -p "$outdir"
mv "$staging"/gray.json "$staging"/gray.csv "$outdir"/
echo "gray soak artifact: $outdir/gray.json"
