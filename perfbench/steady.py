#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload (or the ones named) in two sets of runs, each run with
its own seed, and prints for each end-to-end metric the median and
quartiles of each set, the spread (quartile distance over the median,
flagged when it exceeds the metric's bound, noted when it exceeds a third
of it) and whether the second set's median is within the metric's bound
of the first's, in the metric's worse direction. Bounds come from
BENCHMARK.json. It exits 1 when a spread or a median is outside its bound,
or when the share of failed operations is not the same in every run of
both sets, and stops when a run fails, fails its output checks or reports
other metrics than BENCHMARK.json declares. --traced instead runs each
workload once with --trace 1 and checks its per-layer metrics the same way.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload admit-dense ...]
    python3 perfbench/steady.py --traced

Run it from the root of the checkout.
"""
import argparse
from fractions import Fraction
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed\n{p.stderr}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != declared:
        sys.exit(f"{workload} seed {seed} trace {trace}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(declared.keys() - got.keys())}, "
                 f"undeclared {sorted(got.keys() - declared.keys())}, "
                 f"units {sorted(k for k in got.keys() & declared.keys() if got[k] != declared[k])}")
    return res


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2),
                    help="sets of runs (1: spreads only, for tuning)")
    ap.add_argument("--workload", action="append", help="workload to run (default: all)")
    ap.add_argument("--traced", action="store_true",
                    help="instead, run each workload once traced and print its per-layer metrics")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    if args.traced:
        for w in names:
            res = run_once(bench, w, 1, trace=1)
            print(f"{w} traced: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        return
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + i + 100 * s
                res = run_once(bench, w, seed)
                runs.append(res)
                print(f"{w} set {s + 1} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
            sets.append(runs)
        shares = [Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs]
        same = len(set(shares)) == 1
        print(f"\n{w}: failed share per run " + (f"{shares[0]} in every run" if same else
              "DIFFERENT: " + " ".join(str(x) for x in shares)))
        ok = ok and same
        print(f"{'metric':<18} {'bound':>6} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
        for name in sorted(sets[0][0]["metrics"]):
            m = metrics.get(name)
            if m is None:
                print(f"{name}: not declared in BENCHMARK.json")
                ok = False
                continue
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(vals)
                meds.append(q2)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                steady = spread <= m["bound"]
                ok = ok and steady
                print(f"{name:<18} {m['bound']:>6} {s + 1:>3} {q1:>12.6g} {q2:>12.6g} {q3:>12.6g} {spread:>8.2%}"
                      + ("  SPREAD OVER THE BOUND" if not steady else
                         "  (over a third of the bound)" if spread > m["bound"] / 3 else ""))
            if len(meds) < 2:
                continue
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            agree = worse <= m["bound"]
            ok = ok and agree
            print(f"{'':<18} second median {'worse' if worse > 0 else 'better'} by {abs(worse):.2%}: "
                  f"{'within' if agree else 'OUTSIDE'} the bound")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
