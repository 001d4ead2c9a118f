#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload litmus-native --seed 2016 --seconds 30 --trace 0

Every flag is passed through to the `perfbench` binary (see
perfbench/README.md). The binary is built with cargo, offline, into
$CARGO_TARGET_DIR (default: .bench_build at the repository root). Before
the benchmark's own output, one `meta` JSON line records the run's
seed, nproc, toolchain and source revision; the last stdout line is the
benchmark's result object.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/src")


def source_digest():
    """SHA-256 over the sources the binary is built from, in path order."""
    h = hashlib.sha256()
    paths = []
    for top in SOURCES:
        full = os.path.join(ROOT, top)
        if os.path.isfile(full):
            paths.append(full)
        for d, dirs, files in os.walk(full):
            dirs[:] = [x for x in dirs if x != "target"]
            paths.extend(os.path.join(d, f) for f in files)
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def arg_value(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else default


def main():
    argv = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    meta = {
        "seed": int(arg_value(argv, "--seed", "2016")),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "git_revision": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }
    print(json.dumps({"meta": meta}), flush=True)

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s; the run was killed", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
