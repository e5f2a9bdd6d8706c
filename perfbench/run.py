#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); journals, traces and determinism records go to
perfbench/ under it. The benchmark's result line is the last line printed.
Exit codes: the benchmark's own (0 ok, 1 wrong output, 2 usage error),
3 if the build fails, 4 if the run exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench")
    try:
        run = subprocess.run(
            [exe, *sys.argv[1:], "--work-dir", work_dir],
            env=env,
            timeout=RUN_LIMIT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
