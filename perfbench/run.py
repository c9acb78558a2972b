#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

usage: python3 perfbench/run.py --workload <spmv_sweep|serve_zipf|stream_mutate>
                                --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package is built in release
mode (into $CARGO_TARGET_DIR, default `.bench_build` at the root) and then
run with the given arguments; its standard output is passed through, and
its last line is the JSON result. A failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checkout's commit, when it is a git checkout; never searches
    above the repository root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [binary] + sys.argv[1:],
        cwd=ROOT,
        env=dict(os.environ, PERFBENCH_COMMIT=commit()),
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
