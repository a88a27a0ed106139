#!/usr/bin/env python3
"""Validate the observability-overhead row of BENCH_obs.json.

Usage:
  python3 scripts/check_obs_row.py [BENCH_obs.json]
  python3 scripts/check_obs_row.py --run path/to/bench_overhead

With --run, the script first runs `bench_overhead obsjson` in a fresh
temporary directory and validates the row it writes there. The row comes
from the 10-DC reliable batched Follow-the-Sun soak, run with OBS_METRICS
off and on. The file must hold exactly one row with every key, the metrics
run must emit `metrics` lines, and its trace must be longer than the
metrics-off trace. The overhead target is recorded in the row but not
gated, because timing on shared machines is too noisy to gate on.
"""
import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REQUIRED = {"bench", "case", "backend", "seed", "dcs", "reps",
            "wall_ms_off", "wall_ms_on", "overhead_pct",
            "target_pct", "within_target", "metrics_lines",
            "trace_lines_off", "trace_lines_on"}


def check(path: Path) -> str | None:
    """Returns an error message, or None when the file holds one valid row."""
    rows = 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        missing = REQUIRED - row.keys()
        if missing:
            return f"obs row missing keys {sorted(missing)}: {line!r}"
        if row["metrics_lines"] <= 0:
            return f"obs run emitted no metrics lines: {line!r}"
        if row["trace_lines_on"] <= row["trace_lines_off"]:
            return f"obs-on trace not larger than off: {line!r}"
        rows += 1
    if rows != 1:
        return f"expected exactly 1 obs row, got {rows}"
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("json", nargs="?", default="BENCH_obs.json")
    p.add_argument("--run", metavar="BENCH_OVERHEAD",
                   help="run `BENCH_OVERHEAD obsjson` first, in a "
                        "temporary directory, and check its row")
    args = p.parse_args()

    if args.run:
        with tempfile.TemporaryDirectory() as tmp:
            bench = str(Path(args.run).resolve())
            if subprocess.run([bench, "obsjson"], cwd=tmp).returncode:
                print("bench_overhead obsjson failed", file=sys.stderr)
                return 1
            error = check(Path(tmp) / "BENCH_obs.json")
    else:
        error = check(Path(args.json))
    if error:
        print(error, file=sys.stderr)
        return 1
    print("obs overhead row OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
