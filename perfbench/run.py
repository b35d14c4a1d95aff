#!/usr/bin/env python3
"""Build seqbench from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--ops N]

Run from the repository root.  The program is built with dune into
_build/ (dune's shared cache disabled, so nothing is written outside the
tree), then run once with --jobs set to the CPUs this process may use,
the most domains any workload may run its checks on.
Its stdout is passed through after checking that the last line carries
exactly the metrics BENCHMARK.json declares for the mode.  Build output
and diagnostics go to stderr.  Exits 2 when the tree cannot be built,
and with seqbench's own status otherwise (1: a wrong verdict).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "seqbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "lib", "perfbench"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            return "git:" + out.stdout.strip() + ("+dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src:" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ops", type=int)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune"), "BENCHMARK.json"):
        if not os.path.exists(need):
            die("run from the repository root: %s is missing" % need)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/seqbench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        die("build failed: %s" % e)
    if built.returncode != 0 or not os.path.exists(EXE):
        die("build failed")

    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--jobs", str(len(os.sched_getaffinity(0))), "--rev", source_rev(),
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("seqbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stderr.write(run.stdout)
        die("seqbench exited with status %d" % run.returncode)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
