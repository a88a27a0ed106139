#!/usr/bin/env python3
"""Validate the scenario-sweep rows of BENCH_scenarios.json.

Usage:
  python3 scripts/check_sweep_rows.py [BENCH_scenarios.json]

`tools/scenario_sweep` writes one row per (scenario, backend) run and one
summary row per candidate backend. Every scenario must have been run by
exactly the `bnb` baseline and the `lns` candidate, the scenarios must
cover all three apps, no row may carry an invariant violation or a failed
determinism re-run, every summary must report zero violations, and no
summary's p50 or p95 objective gap may exceed GATE_GAP.
"""
import argparse
import json
import sys
from pathlib import Path

REQUIRED = {"scenario", "app", "seed", "backend", "objective", "gap",
            "solves", "violation"}
BACKENDS = {"bnb", "lns"}
APPS = {"fts", "wireless", "acloud"}
MIN_SCENARIOS = 200
GATE_GAP = 1.10


def check(path: Path) -> str | None:
    """Returns an error message, or None when the rows pass."""
    runs = {}  # scenario -> set of backends that ran it
    apps = set()
    summaries = 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("summary"):
            summaries += 1
            if row["violations"] != 0:
                return f"sweep reported violations: {line!r}"
            if row["p50_gap"] > GATE_GAP or row["p95_gap"] > GATE_GAP:
                return f"gap gate {GATE_GAP} exceeded: {line!r}"
            continue
        missing = REQUIRED - row.keys()
        if missing:
            return f"sweep row missing keys {sorted(missing)}: {line!r}"
        if row["violation"]:
            return f"invariant violation survived to rows: {line!r}"
        if row.get("deterministic") is False:
            return f"nondeterministic re-run: {line!r}"
        runs.setdefault(row["scenario"], set()).add(row["backend"])
        apps.add(row["app"])
    if len(runs) < MIN_SCENARIOS:
        return f"expected >= {MIN_SCENARIOS} scenarios, got {len(runs)}"
    for scenario, backends in sorted(runs.items()):
        if backends != BACKENDS:
            return (f"{scenario}: backends {sorted(backends)} != "
                    f"{sorted(BACKENDS)}")
    if apps != APPS:
        return f"apps missing from sweep: {sorted(APPS - apps)}"
    if summaries < 1:
        return "no summary row"
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("json", nargs="?", default="BENCH_scenarios.json")
    args = p.parse_args()

    error = check(Path(args.json))
    if error:
        print(error, file=sys.stderr)
        return 1
    print("sweep rows OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
