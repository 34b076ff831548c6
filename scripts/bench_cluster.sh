#!/usr/bin/env bash
# Cluster-scaling benchmark: the same closed-loop loadgen workload against
# impserve at 1 shard and at N shards, equal client concurrency, and the
# headline ratio is ADMITTED adds per second — admission capacity, not raw
# request throughput.
#
# usage: scripts/bench_cluster.sh [out.json] [duration] [shards] [min_ratio]
#
#   out.json   output path          (default: BENCH_CLUSTER.json)
#   duration   per-run measure time (default: 5s; use 10s+ for baselines)
#   shards     wide configuration   (default: 8)
#   min_ratio  fail below this admits/s scaling ratio (default: 4; 0 skips)
#
# Both widths run the same server (a single node is a one-shard cluster).
#
# Why admitted adds: one scheduler saturates at Theorem-1 utilization 1.0 —
# past that point every add is feasibility-rejected, and HTTP 200s keep
# flowing while admission capacity is flat. The workload (-names well past
# one shard's capacity) holds the single shard at its ceiling; N shards
# hold N ceilings, so admitted adds/s is where partitioning shows up.
# Requests/s and events/s are reported too, transparently: on one spindle
# the raw ingest path scales far less than admission capacity does.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_CLUSTER.json}"
duration="${2:-5s}"
shards="${3:-8}"
min_ratio="${4:-4}"

conns="${BENCH_CONNS:-16}"
batch="${BENCH_BATCH:-64}"
placement="${BENCH_PLACEMENT:-round-robin}"
# The name pool is sized so one shard is deeply name-scarce (it caps out
# near 22 resident tasks) while 8 shards' aggregate capacity still exceeds
# the ~names/2 churn equilibrium — admission capacity, not the name pool,
# is what separates the two configurations.
names="${BENCH_NAMES:-320}"
addr="127.0.0.1:18096"

bin="$(mktemp -d "${TMPDIR:-/tmp}/bench_cluster.XXXXXX")"
pid=""
cleanup() {
  if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  fi
  rm -rf "$bin"
}
trap cleanup EXIT INT TERM

go build -o "$bin/impserve" ./cmd/impserve
go build -o "$bin/loadgen" ./cmd/loadgen

run_width() {
  local width="$1" report="$2"
  # -queue counts events per shard: room for every event the clients can
  # have in flight, so neither width sheds on queue depth and the ratio
  # measures admission capacity alone.
  "$bin/impserve" -dir "$bin/state-$width" -listen "$addr" -quiet \
    -shards "$width" -placement "$placement" -queue "$((conns * batch))" &
  pid=$!
  for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  "$bin/loadgen" -url "http://$addr" -mode closed -conns "$conns" \
    -batch "$batch" -names "$names" -duration "$duration" -warmup 500ms \
    -out "$report"
  kill -TERM "$pid"
  wait "$pid" || true
  pid=""
}

run_width 1 "$bin/one.json"
run_width "$shards" "$bin/wide.json"

staging="$(mktemp "${TMPDIR:-/tmp}/bench_cluster.XXXXXX.json")"
ONE="$bin/one.json" WIDE="$bin/wide.json" OUT="$staging" \
SHARDS="$shards" CONNS="$conns" BATCH="$batch" NAMES="$names" MIN_RATIO="$min_ratio" PLACEMENT="$placement" \
python3 - <<'PY'
import json, os, sys

one = json.load(open(os.environ["ONE"]))
wide = json.load(open(os.environ["WIDE"]))
min_ratio = float(os.environ["MIN_RATIO"])

def row(rep):
    return {
        "admits_per_sec": rep["admits_per_sec"],
        "admits": rep["admits"],
        "add_rejects": rep["add_rejects"],
        "requests_per_sec": rep["requests_per_sec"],
        "events_per_sec": rep["events_per_sec"],
        "errors": rep["errors"],
        "p99_us": rep["latency"]["p99_us"],
        "resident_tasks": (rep.get("server_state") or [{}])[0].get("tasks"),
    }

ratio = wide["admits_per_sec"] / max(one["admits_per_sec"], 1e-9)
report = {
    "benchmark": "cluster-scaling",
    "workload": {
        "mode": "closed", "conns": int(os.environ["CONNS"]),
        "batch": int(os.environ["BATCH"]), "names": int(os.environ["NAMES"]),
        "duration_s": one["duration_s"], "placement": os.environ["PLACEMENT"],
    },
    "one_shard": row(one),
    "wide": dict(row(wide), shards=int(os.environ["SHARDS"])),
    "admits_per_sec_ratio": round(ratio, 2),
    "min_ratio": min_ratio,
    "pass": min_ratio == 0 or ratio >= min_ratio,
    "raw": {"one_shard": one, "wide": wide},
}
json.dump(report, open(os.environ["OUT"], "w"), indent=2)
print(f"admits/s: 1 shard {one['admits_per_sec']:.0f}, "
      f"{os.environ['SHARDS']} shards {wide['admits_per_sec']:.0f} "
      f"-> {ratio:.2f}x (events/s {one['events_per_sec']:.0f} -> {wide['events_per_sec']:.0f})",
      file=sys.stderr)
if not report["pass"]:
    print(f"FAIL: admits/s ratio {ratio:.2f} below bound {min_ratio}", file=sys.stderr)
    sys.exit(3)
PY

mv "$staging" "$out"
echo "wrote $out" >&2
