#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads flow,sec]
                                [--out FILE]

Runs perfbench/run.py once per seed on each workload (one process at a
time) and prints, for every metric, the median of the runs and the
interquartile range as a share of the median (statistics.quantiles,
n=4), next to the metric's bound in BENCHMARK.json.  A spread above its
bound, or above a third of it, is flagged.  --out keeps every run's result object
and record.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    kept = {}
    status = 0
    for w in args.workloads.split(","):
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True,
            )
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (w, seed, out.returncode))
                status = 1
                continue
            res = json.loads(lines[-1])
            rec = json.loads(lines[-2])["record"] if len(lines) > 1 else {}
            rows.append({"seed": seed, "result": res, "record": rec})
            print("%s seed %d: ok, %d ops, %d failed, calibration %.4f/%.4f s" % (
                w, seed, res["attempted"], res["failed"],
                rec.get("calibration_start_s", 0), rec.get("calibration_end_s", 0)),
                flush=True)
        kept[w] = rows
        if len(rows) < 4:
            continue
        print("%-10s %-24s %14s %8s %6s" % ("workload", "metric", "median", "iqr/med", "bound"))
        for name in rows[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in rows]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  <-- above bound"
            elif bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
            print("%-10s %-24s %14.6g %8.4f %6s%s" % (
                w, name, med, spread, "" if bound is None else bound, flag), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(kept, fh, indent=1)
    sys.exit(status)


if __name__ == "__main__":
    main()
