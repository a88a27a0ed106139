#!/usr/bin/env python3
"""Compare two sets of bench_e2e results against BENCHMARK.json's bounds.

Usage (from the repository root):
  python3 bench/e2e/compare.py --a RUNS_A... --b RUNS_B... [--bench FILE]

Each RUNS argument is a file holding the stdout of one run of
bench/e2e/run.py, or a directory of such files (*.txt). A file's last line is
the result JSON; the line before it is the detail line with the workload,
seed, objective and fingerprint.

One row per (workload, metric): the median and quartiles of each set, the
change of B's median against A's, and the verdict:
  ok           B is no worse than A by more than the metric's bound
  WORSE        B's median is worse than A's by more than the bound
  UNRESOLVED   worse by more than the bound, but the spread of a set is
               wider than the bound too, so noise cannot be ruled out
  spread       a set's quartile spread (as a share of its median) exceeds
               the bound, with no regression
Per-layer metrics have no bound and print without a verdict. Deterministic
values (the detail line's objective and fingerprint, and every per-layer
count) are compared exactly between runs of the same workload and seed in
either set, and every difference is listed. The exit code is 1 on a WORSE
row, an incorrect or failing run, or a different objective or fingerprint
(the fingerprint covers the output tables and the solver, Datalog and
network work counts).
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(paths):
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.txt")) if p.is_dir() else [p])
    runs = []
    for f in files:
        lines = [ln for ln in f.read_text().splitlines() if ln.startswith("{")]
        if len(lines) < 2:
            print(f"skipping {f}: no result lines", file=sys.stderr)
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"file": str(f), "detail": detail, "result": result})
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", nargs="+", required=True, help="baseline runs")
    ap.add_argument("--b", nargs="+", required=True, help="candidate runs")
    ap.add_argument("--bench", default=str(HERE.parent.parent /
                                           "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(Path(args.bench).read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    sets = {"A": load_runs(args.a), "B": load_runs(args.b)}
    status = 0

    # Correctness of every run.
    for name, runs in sets.items():
        for r in runs:
            res = r["result"]
            if not res["correct"] or res["failed"]:
                print(f"{name}: {r['file']}: correct={res['correct']} "
                      f"failed={res['failed']}")
                status = 1

    # Deterministic values must repeat for the same (workload, seed).
    seen = {}
    for runs in sets.values():
        for r in runs:
            d, m = r["detail"], r["result"]["metrics"]
            det = {"objective": d["objective"],
                   "fingerprint": d["fingerprint"]}
            det.update({k: v["value"] for k, v in m.items()
                        if v["unit"] == "count"})
            key = (d["workload"], d["seed"])
            for k, v in det.items():
                prev = seen.setdefault(key + (k,), (v, r["file"]))
                if prev[0] != v:
                    # A different output is a behaviour change; a different
                    # count alone can be the point of an optimisation.
                    output = k in ("objective", "fingerprint")
                    print(f"{'mismatch' if output else 'count differs'} "
                          f"{key[0]} seed {key[1]} {k}: "
                          f"{prev[0]} ({prev[1]}) != {v} ({r['file']})")
                    status = status or int(output)

    # Per-(workload, metric) medians, quartiles and bound check.
    values = {}
    for name, runs in sets.items():
        for r in runs:
            w = r["detail"]["workload"]
            for k, v in r["result"]["metrics"].items():
                values.setdefault((w, k), {"A": [], "B": [],
                                           "unit": v["unit"]})[name].append(
                    v["value"])
    print(f"{'workload':<9} {'metric':<28} {'unit':<8} "
          f"{'A median [q1, q3]':<40} {'B median [q1, q3]':<40} "
          f"{'change':>8}  verdict")
    for (w, k), row in sorted(values.items()):
        a, b = row["A"], row["B"]
        cells = []
        for xs in (a, b):
            if xs:
                q1, med, q3 = quartiles(xs)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(xs)}")
            else:
                cells.append("-")
        change, verdict = "", ""
        if a and b:
            ma, mb = statistics.median(a), statistics.median(b)
            rel = (mb - ma) / ma if ma else 0.0
            change = f"{rel * 100:+.1f}%"
            m = e2e.get(k)
            if m is not None:
                worse = rel if m["better"] == "lower" else -rel
                noisy = max(spread(a), spread(b)) > m["bound"]
                if worse > m["bound"]:
                    verdict = "UNRESOLVED" if noisy else "WORSE"
                    if not noisy:
                        status = 1
                else:
                    verdict = "spread" if noisy and k != "setup_s" else "ok"
                verdict += f" (bound {m['bound']:.0%})"
        print(f"{w:<9} {k:<28} {row['unit']:<8} {cells[0]:<40} "
              f"{cells[1]:<40} {change:>8}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
