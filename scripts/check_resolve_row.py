#!/usr/bin/env python3
"""Validate the incremental re-solve row of BENCH_resolve.json.

Usage:
  python3 scripts/check_resolve_row.py [BENCH_resolve.json]
  python3 scripts/check_resolve_row.py --run path/to/bench_overhead

With --run, the script first runs `bench_overhead resolvejson` in a fresh
temporary directory and validates the row it writes there. The row comes
from a 1-fact delta on the 10-DC reliable batched Follow-the-Sun chain. The
deterministic facts are gated hard: all but two of the node solves are
served by whole-solve reuse, the delta dirties at least one decision group,
and the incremental objective equals the cold one. The wall-clock speedup
target is recorded in the row but not gated, because timing on shared
machines is too noisy to gate on.
"""
import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REQUIRED = {"bench", "case", "backend", "seed", "dcs", "reps",
            "wall_ms_cold", "wall_ms_incr", "speedup", "target",
            "within_target", "dirty", "clean", "reused",
            "fallback", "objective_cold", "objective_incr"}


def check(path: Path) -> str | None:
    """Returns an error message, or None when the file holds one valid row."""
    rows = 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        missing = REQUIRED - row.keys()
        if missing:
            return f"resolve row missing keys {sorted(missing)}: {line!r}"
        if row["reused"] != row["dcs"] - 2:
            return f"expected {row['dcs'] - 2} reused node solves: {line!r}"
        if row["dirty"] < 1:
            return f"the 1-fact delta dirtied nothing: {line!r}"
        if row["objective_cold"] != row["objective_incr"]:
            return f"cold/incremental objective mismatch: {line!r}"
        rows += 1
    if rows != 1:
        return f"expected exactly 1 resolve row, got {rows}"
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("json", nargs="?", default="BENCH_resolve.json")
    p.add_argument("--run", metavar="BENCH_OVERHEAD",
                   help="run `BENCH_OVERHEAD resolvejson` first, in a "
                        "temporary directory, and check its row")
    args = p.parse_args()

    if args.run:
        with tempfile.TemporaryDirectory() as tmp:
            bench = str(Path(args.run).resolve())
            if subprocess.run([bench, "resolvejson"], cwd=tmp).returncode:
                print("bench_overhead resolvejson failed", file=sys.stderr)
                return 1
            error = check(Path(tmp) / "BENCH_resolve.json")
    else:
        error = check(Path(args.json))
    if error:
        print(error, file=sys.stderr)
        return 1
    print("incremental re-solve row OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
