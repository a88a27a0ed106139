#!/usr/bin/env python3
"""Validate the canonical solver-core rows of BENCH_solver.json.

Usage:
  python3 scripts/check_solver_rows.py [BENCH_solver.json]
  python3 scripts/check_solver_rows.py --run path/to/bench_micro_solver

With --run, the script first runs `bench_micro_solver solverjson` in a fresh
temporary directory and validates the rows it writes there. Every case runs
under a deterministic node or iteration budget, so every gate below is on
counts, not on the wall clock:
  - the rows cover exactly the canonical cases, each with work done;
  - each *_naive twin runs in the naive propagation mode and filters no
    wakes, and every row's props_executed equals its propagations counter;
  - each event/naive pair searches the same tree to the same optimum;
  - the event engine executes at least 2x fewer propagators than the naive
    reference on deep_dive_bnb and 1.5x fewer on prop_heavy_bnb, and stays
    below 17.53 propagations per node on the deep dive.
"""
import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REQUIRED = {"bench", "case", "backend", "seed", "nodes", "propagations",
            "wall_ms", "nodes_per_sec", "props_per_sec", "peak_mem_bytes",
            "trail_saves", "domain_allocs", "props_executed",
            "props_skipped_entailed", "wakes_filtered", "naive", "objective"}
CASES = {"deep_dive_bnb", "bnb_assign10", "lns_assign12", "lns_grouped10",
         "bnb_interf12", "deep_dive_bnb_naive", "prop_heavy_bnb",
         "prop_heavy_naive"}
MODE_PAIRS = (("deep_dive_bnb", "deep_dive_bnb_naive"),
              ("prop_heavy_bnb", "prop_heavy_naive"))
# The PR 8 deep dive ran 17.53 propagations per node; the event engine must
# stay strictly below.
PROPS_PER_NODE_FENCE = 17.53


def check(path: Path) -> str | None:
    """Returns an error message, or None when the rows pass."""
    by_case = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        missing = REQUIRED - row.keys()
        if missing:
            return f"solver row missing keys {sorted(missing)}: {line!r}"
        if row["nodes"] <= 0 or row["propagations"] <= 0:
            return f"solver row without work: {line!r}"
        by_case[row["case"]] = row
    if set(by_case) != CASES:
        return f"solver cases mismatch: {sorted(by_case)} != {sorted(CASES)}"

    for name, r in by_case.items():
        want_naive = 1 if name.endswith("_naive") else 0
        if r["naive"] != want_naive:
            return f"{name}: naive flag {r['naive']} != {want_naive}"
        if want_naive and (r["wakes_filtered"] or r["props_skipped_entailed"]):
            return f"{name}: naive mode must not filter wakes"
        if r["props_executed"] != r["propagations"]:
            return f"{name}: props_executed disagrees with propagations"

    # Both propagation modes must search the identical tree to the
    # identical optimum.
    for ev, nv in MODE_PAIRS:
        e, n = by_case[ev], by_case[nv]
        if (e["nodes"], e["objective"]) != (n["nodes"], n["objective"]):
            return (f"{ev} vs {nv}: trees diverged "
                    f"({e['nodes']},{e['objective']}) != "
                    f"({n['nodes']},{n['objective']})")

    dd_e, dd_n = by_case["deep_dive_bnb"], by_case["deep_dive_bnb_naive"]
    if dd_n["props_executed"] < 2 * dd_e["props_executed"]:
        return (f"deep dive props reduction below 2x: "
                f"{dd_n['props_executed']} naive vs "
                f"{dd_e['props_executed']} event")
    ph_e, ph_n = by_case["prop_heavy_bnb"], by_case["prop_heavy_naive"]
    if 2 * ph_n["props_executed"] < 3 * ph_e["props_executed"]:
        return (f"prop_heavy props reduction below 1.5x: "
                f"{ph_n['props_executed']} naive vs "
                f"{ph_e['props_executed']} event")
    ppn = dd_e["props_executed"] / dd_e["nodes"]
    if ppn >= PROPS_PER_NODE_FENCE:
        return (f"deep dive props-per-node regressed to {ppn:.2f} "
                f"(fence {PROPS_PER_NODE_FENCE})")
    # The filters must actually fire on event rows (counters wired up).
    if dd_e["wakes_filtered"] <= 0:
        return "deep_dive_bnb: event mode filtered no wakes"
    if ph_e["wakes_filtered"] <= 0 or ph_e["props_skipped_entailed"] <= 0:
        return "prop_heavy_bnb: suppression counters silent"
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("json", nargs="?", default="BENCH_solver.json")
    p.add_argument("--run", metavar="BENCH_MICRO_SOLVER",
                   help="run `BENCH_MICRO_SOLVER solverjson` first, in a "
                        "temporary directory, and check its rows")
    args = p.parse_args()

    if args.run:
        with tempfile.TemporaryDirectory() as tmp:
            bench = str(Path(args.run).resolve())
            if subprocess.run([bench, "solverjson"], cwd=tmp,
                              stdout=subprocess.DEVNULL).returncode:
                print("bench_micro_solver solverjson failed", file=sys.stderr)
                return 1
            error = check(Path(tmp) / "BENCH_solver.json")
    else:
        error = check(Path(args.json))
    if error:
        print(error, file=sys.stderr)
        return 1
    print(f"solver rows OK, cases: {sorted(CASES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
