#!/usr/bin/env bash
# Run the cluster chaos soak and write the JSON/CSV artifact. The soak
# plays a deterministic churn tape across sharded clusters while a seeded
# torment plan injects storage faults on every shard WAL (failed fsyncs,
# torn writes, disk-full, stalls), crash-restarts shards, and wedge-
# evacuates them through the checkpoint-handoff migration path. Each
# width drives the tape three times (serial, serial again, concurrent),
# checks the soak invariants after every tick of every drive (accepted ⇒
# live, one owner per task, one primary per shard, zero clean misses),
# and fails on the first violation or on any tick where the drives'
# digests diverge. Rows carry no lost/orphan columns: a returned row has
# passed the checker.
#
# With replicas > 0 every shard carries that many synchronous followers
# and the expect-model tightens to zero shed: wedges land on primary and
# follower drives, failover must absorb every one (promotions instead of
# evacuations), and the run fails on any shed.
#
# usage: scripts/chaos_soak.sh [outdir] [events] [replicas]
#
#   outdir    artifact directory        (default: chaossoak)
#   events    churn events per tape     (default: 1200 — the CI soak;
#             raise for a denser torment schedule)
#   replicas  synchronous followers per shard (default: 0 — unreplicated)
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-chaossoak}"
events="${2:-1200}"
replicas="${3:-0}"

# Stage into a temp dir so a failed run never leaves a partial artifact
# where CI (or a human) might mistake it for a finished one.
staging="$(mktemp -d "${TMPDIR:-/tmp}/chaos_soak.XXXXXX")"
trap 'rm -rf "$staging"' EXIT INT TERM

go run ./cmd/paperbench chaos -events "$events" -replicas "$replicas" -csv "$staging"

mkdir -p "$outdir"
mv "$staging"/chaos.json "$staging"/chaos.csv "$outdir"/
echo "chaos soak artifact: $outdir/chaos.json"
