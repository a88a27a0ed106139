#!/usr/bin/env python3
"""Validate SolveRecord JSON rows captured from the bench outputs.

Usage:
  python3 scripts/check_solve_records.py solve_records.jsonl

Each line is one `cologne::SolveRecord` row (common/stats.h), as the benches
print them. Every row must parse and carry the shared keys, there must be
at least one row, and both search backends (`bnb` and `lns`) must appear.
"""
import argparse
import json
import sys
from pathlib import Path

REQUIRED = {"bench", "backend", "seed", "nodes", "iterations", "restarts",
            "wall_ms"}
BACKENDS = {"bnb", "lns"}


def check(path: Path) -> str | None:
    """Returns an error message, or None when the rows pass."""
    rows = 0
    backends = set()
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        missing = REQUIRED - row.keys()
        if missing:
            return f"row missing keys {sorted(missing)}: {line!r}"
        rows += 1
        backends.add(row["backend"])
    if rows == 0:
        return "no SolveRecord rows captured"
    if not BACKENDS <= backends:
        return f"missing backend rows: {sorted(BACKENDS - backends)}"
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("jsonl")
    args = p.parse_args()

    error = check(Path(args.jsonl))
    if error:
        print(error, file=sys.stderr)
        return 1
    print("SolveRecord rows OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
