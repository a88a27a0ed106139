#!/usr/bin/env python3
"""Check the end-to-end workloads against their golden fingerprints.

Usage (from the repository root):
  python3 scripts/check_e2e_fingerprints.py [--bench path/to/bench_e2e]

Runs every workload of bench/e2e (acloud, fts, fts_incr, wireless) at
--seed 9001 --seconds 1 and requires, per workload, that the result line
reports `"correct": true` and `"failed": 0`, and that the fingerprint line
(objective, output hash, solves, nodes, deltas, messages) equals the one in
tests/golden/e2e_fingerprints.txt. With --bench the given binary is run
directly; without it each workload goes through bench/e2e/run.py, which
builds its own Release copy first. Each workload's output is echoed to
stdout. Exits 1 on the first failing workload.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "e2e_fingerprints.txt"
WORKLOADS = ("acloud", "fts", "fts_incr", "wireless")
ARGS = ["--seed", "9001", "--seconds", "1"]
RUN_TIMEOUT_S = 600


def check(workload: str, lines: list[str],
          golden: dict[str, str]) -> str | None:
    """Returns an error message, or None when the workload's output passes."""
    if len(lines) < 2:
        return f"{workload}: expected a fingerprint and a result line"
    try:
        result = json.loads(lines[-1])
        got = json.loads(lines[-2])["fingerprint"]
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        return f"{workload}: unreadable output ({e})"
    if not result.get("correct") or result.get("failed") != 0:
        return f"{workload}: not correct or some COP failed: {result}"
    if got != golden.get(workload):
        return (f"{workload}: fingerprint {got!r} != golden "
                f"{golden.get(workload)!r}")
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--bench",
                   help="bench_e2e binary (default: bench/e2e/run.py)")
    args = p.parse_args()

    golden = dict(line.split(" ", 1)
                  for line in GOLDEN.read_text().splitlines() if line)
    for workload in WORKLOADS:
        if args.bench:
            cmd = [args.bench, "--workload", workload, *ARGS]
        else:
            cmd = [sys.executable, str(ROOT / "bench" / "e2e" / "run.py"),
                   "--workload", workload, *ARGS]
        try:
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{workload}: timed out", file=sys.stderr)
            return 1
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        if run.returncode != 0:
            print(f"{workload}: exit code {run.returncode}", file=sys.stderr)
            return 1
        error = check(workload, run.stdout.splitlines(), golden)
        if error:
            print(error, file=sys.stderr)
            return 1
    print(f"e2e fingerprints: {len(WORKLOADS)} workloads match {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
