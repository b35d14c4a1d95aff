#!/usr/bin/env python3
"""Count determinism check: which work counts repeat exactly.

    python3 perfbench/check_counts.py [--seed 7] [--workloads flow,sec,serve,hier_edit]

Runs every workload twice at one seed with a fixed op count, all ops
traced (run.py --trace 1 --ops N), and compares each per-op work count
(every per-layer metric whose unit is "count") between the two runs.
Prints, per workload and count, "exact" or the ops on which the runs
differ.  One source of difference is expected and excused:
first-counterexample cancellation.  On an op where a partition was
abandoned (cec.undecided_partitions > 0 in either run), siblings stop
wherever they were when the counterexample arrived.  Any other
difference fails the check (exit 1).  Run from the repository root.
"""

import argparse
import json
import subprocess
import sys

OPS = {"flow": 22, "sec": 28, "serve": 38, "hier_edit": 44}


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--ops", str(OPS[workload])],
        stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit("%s: run failed with status %d" % (workload, out.returncode))
    rec = json.loads(lines[-2])["record"]
    return {op["idx"]: op for op in rec["per_op_layers"]}


def main():
    spec = json.load(open("BENCHMARK.json"))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", default=",".join(OPS))
    args = ap.parse_args()
    failed = False
    for w in args.workloads.split(","):
        a = run(w, args.seed)
        b = run(w, args.seed)
        print("%s (%d ops at seed %d)" % (w, len(a), args.seed))
        for name in counts:
            seen = [i for i in a if name in a[i]["layers"] or name in b.get(i, {}).get("layers", {})]
            if not seen:
                continue
            diff = [i for i in seen if a[i]["layers"].get(name) != b.get(i, {}).get("layers", {}).get(name)]
            if not diff:
                print("  %-28s exact" % name)
                continue
            cancelled = [
                i for i in diff
                if a[i]["layers"].get("cec.undecided_partitions", 0) > 0
                or b.get(i, {}).get("layers", {}).get("cec.undecided_partitions", 0) > 0
            ]
            excused = "NEQ cancellation" if len(cancelled) == len(diff) else None
            print("  %-28s differs on %d/%d ops %s%s" % (
                name, len(diff), len(seen), diff[:8],
                " (expected: %s)" % excused if excused else "  <-- unexpected"))
            failed = failed or excused is None
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
