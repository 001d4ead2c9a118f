#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs the benchmark at `--scale tiny` untraced and
traced, and checks that
  * the result line names exactly the BENCHMARK.json metrics of that
    mode, each with its declared unit and a finite value;
  * every campaign passed, which includes the traced replay reproducing
    the untraced per-campaign digests;
  * the header's results digest repeats between the two runs.
It then injects a wrong expected digest and checks that every campaign
is counted as failed. Exits 0 when all checks pass.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("litmus-native", "litmus-stress", "app-serve")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--scale", "tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    digest = next(l for l in lines if l.startswith("workload=")).split("digest=")[1]
    return json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in WORKLOADS:
        digests = []
        for trace in (0, 1):
            result, digest = run(w, trace)
            digests.append(digest)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{w} trace={trace}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{w} trace={trace}: a metric is not finite")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} trace={trace}: {result['failed']} of {result['attempted']} failed")
        if digests[0] != digests[1]:
            problems.append(f"{w}: results digest {digests[0]} untraced vs {digests[1]} traced")
        injected, _ = run(w, 0, "--expect-digest", "0")
        if injected["correct"] or injected["failed"] != injected["attempted"]:
            problems.append(f"{w}: a wrong expected digest was not counted as failure: {injected}")
        print(f"{w}: ok" if not problems else f"{w}: {len(problems)} problem(s) so far", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
