#!/usr/bin/env python3
"""Print a markdown table of two run sets written by `-json`: per workload and
end-to-end metric, both values, how much worse the second is than the first
as a share of the first, and the metric's bound from BENCHMARK.json.

    python3 bench/compare.py bench/baseline/seed-runA.json bench/baseline/seed-runB.json
"""
import json
import os
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
a, b = (json.load(open(p)) for p in sys.argv[1:3])

print("| workload | metric | %s | %s | worse by | bound |" % tuple(os.path.basename(p) for p in sys.argv[1:3]))
print("|---|---|---:|---:|---:|---:|")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        try:
            va = a["results"][w["name"]]["metrics"][m["name"]]["value"]
            vb = b["results"][w["name"]]["metrics"][m["name"]]["value"]
        except KeyError:
            continue
        worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
        flag = " **over**" if worse > m["bound"] else ""
        print("| %s | %s (%s) | %.4g | %.4g | %+.1f%%%s | %.0f%% |" % (
            w["name"], m["name"], m["unit"], va, vb, 100 * worse, flag, 100 * m["bound"]))
