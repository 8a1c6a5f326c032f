#!/usr/bin/env python3
"""Checks the benchmark is steady: runs one workload once per seed and
reports, for every end-to-end metric, the median and the spread (the
distance between the first and third quartile as a share of the median)
against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload metagenome --seeds 1-10
    python3 perfbench/spread.py --workload service --seeds 1-10 \
        --out set1.json
    python3 perfbench/spread.py --workload service --seeds 1-10 \
        --compare set1.json

--compare also checks that this set's median is no worse than the earlier
set's by more than the bound. Exits non-zero when a check fails or a run
is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        print("seed %d: run.py exited with status %d\n%s" %
              (seed, out.returncode, out.stderr[-2000:]))
        return None
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        problems = json.loads(lines[-2])["details"]["problems"]
        print("seed %d: problems: %s" % (seed, problems))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", help="write the per-seed values here")
    ap.add_argument("--compare", help="an earlier --out file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in parse_seeds(args.seeds):
        res = run_once(args.workload, seed, seconds)
        if res is None:
            ok = False
            continue
        ok &= res["correct"] and res["failed"] == 0
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, res["correct"], res["attempted"], res["failed"]))
        for name in values:
            values[name].append(res["metrics"][name]["value"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f)
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    print("%-24s %14s %8s %6s %s" % ("metric", "median", "spread", "bound",
                                     "verdict"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = values[name]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        verdict = "steady" if spread < bound / 3 else (
            "within bound" if spread <= bound else "TOO WIDE")
        if name == "setup_s":
            verdict += " (not gated)"
        elif spread > bound:
            ok = False
        if earlier is not None:
            prev = statistics.median(earlier[name])
            worse = (med - prev) / prev if m["better"] == "lower" else \
                (prev - med) / prev
            verdict += ", vs earlier %+.3f" % worse
            if worse > bound:
                verdict += " REGRESSED"
                ok = False
        print("%-24s %14.6g %8.4f %6.3f %s" % (name, med, spread, bound,
                                                verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
