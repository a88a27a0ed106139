#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources and run one workload.

Usage (from the repository root):
  python3 bench/e2e/run.py --workload acloud|fts|fts_incr|wireless \
      --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e) and is
incremental, so only the first run pays for it. Build output goes to stderr;
stdout carries the benchmark's own lines, the last of which is the result
JSON. With --trace 1 the benchmark reports the per-layer metrics and writes
a Chrome trace-event file (opens in Perfetto) under the build directory.
The exit code is the benchmark's, or 1 when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("acloud", "fts", "fts_incr", "wireless")
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> bool:
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release", *generator]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        # A cache left by another source tree or generator: start over once.
        shutil.rmtree(build_dir, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_root / "e2e"
    if not build(build_dir):
        print("bench_e2e: build failed", file=sys.stderr)
        return 1

    cmd = [str(build_dir / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        trace_dir = out_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace", str(trace_file)]
        print(f"bench_e2e: trace -> {trace_file}", file=sys.stderr)
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("bench_e2e: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
