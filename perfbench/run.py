#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload figs-quick --seed 1 --seconds 30 --trace 0

The Go benchmark is built from this checkout's sources into the build
directory ($CARGO_TARGET_DIR, default .bench_build), with the Go build
cache kept there too, and run once. Its last line of standard output is
the result JSON. The exit code is non-zero when the build or run fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT = 600  # a cold build compiles the standard library too
RUN_TIMEOUT = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=str(build / "gocache"),
        GOPATH=str(build / "gopath"),
        GOMODCACHE=str(build / "gopath" / "pkg" / "mod"),
        XDG_CONFIG_HOME=str(build / "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = build / "perfbench" / "perfbench"
    built = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=env, timeout=BUILD_TIMEOUT)
    if built.returncode != 0:
        return built.returncode
    ran = subprocess.run(
        [str(binary), "-workload", args.workload, "-seed", str(args.seed),
         "-seconds", str(args.seconds), "-trace", str(args.trace),
         "-root", str(root), "-out", str(build / "perfbench")],
        env=env, timeout=RUN_TIMEOUT)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
