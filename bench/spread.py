#!/usr/bin/env python3
"""Run each workload on several seeds and print, per end-to-end metric, the
median and the interquartile spread as a share of the median, next to the
metric's bound in BENCHMARK.json. The benchmark is steady enough when every
spread (setup_s aside) is below its bound, and comfortable below a third.

    python3 bench/spread.py [-n 10] [-w workload ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))

ap = argparse.ArgumentParser()
ap.add_argument("-n", type=int, default=10, help="runs per workload, seeds 1..n")
ap.add_argument("-w", action="append", help="workload (default: all)")
args = ap.parse_args()

names = args.w or [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
bad = False
for name in names:
    rows = []
    for seed in range(1, args.n + 1):
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        try:
            res = json.loads(p.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sys.stderr.write(p.stdout[-3000:] + p.stderr[-3000:])
            sys.exit("%s seed %d exited %d without a result" % (name, seed, p.returncode))
        if p.returncode != 0 or not res["correct"] or res["failed"]:
            bad = True
            sys.stderr.write("\n".join(l for l in p.stdout.splitlines() if "CHECK FAILED" in l or "error" in l)[:3000] + "\n")
        rows.append(res)
        print("%s seed %d: correct=%s failed=%d/%d" % (name, seed, res["correct"], res["failed"], res["attempted"]), flush=True)
    print("%-24s %-20s %12s %9s %7s" % (name, "metric", "median", "iqr/med", "bound"))
    for metric, bound in bounds.items():
        vals = [r["metrics"][metric]["value"] for r in rows]
        med = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
        print("%-24s %-20s %s" % ("", "", " ".join("%.4g" % v for v in vals)))
        flag = "" if metric == "setup_s" or spread <= bound / 3 else (" >bound/3" if spread <= bound else " >BOUND")
        print("%-24s %-20s %12.4f %8.1f%% %6.0f%%%s" % ("", metric, med, 100 * spread, 100 * bound, flag))
sys.exit(1 if bad else 0)
