#!/usr/bin/env python3
"""Validate the Follow-the-Sun churn rows of BENCH_churn.json.

Usage (from the repository root):
  python3 scripts/check_churn_rows.py [BENCH_churn.json]
  python3 scripts/check_churn_rows.py --run path/to/bench_fig4_followsun

With --run, the script first runs `bench_fig4_followsun churn` in a fresh
temporary directory and validates the rows it writes there. Every row must
carry the churn keys, the rows must cover exactly the seven churn cases
(0/5/20% loss and one crash, unreliable and reliable), and the file must be
byte-identical to tests/golden/churn_rows.jsonl: the rows hold no wall-clock
field, so any difference is a behaviour change (objective trajectory, drops,
failed or recovered rounds).
"""
import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "churn_rows.jsonl"
REQUIRED = {"bench", "case", "loss_pct", "crash", "dcs", "reliable", "seed",
            "t_s", "cost", "normalized", "failed_rounds", "recovered_rounds",
            "drops"}
CASES = {"loss0", "loss5", "loss20", "crash1", "r10_loss5", "r10_loss20",
         "r10_crash"}


def check(path: Path) -> str | None:
    """Returns an error message, or None when the file passes."""
    text = path.read_text()
    cases = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        missing = REQUIRED - row.keys()
        if missing:
            return f"churn row missing keys {sorted(missing)}: {line!r}"
        cases.add(row["case"])
    if cases != CASES:
        return f"churn cases mismatch: {sorted(cases)} != {sorted(CASES)}"
    golden = GOLDEN.read_text()
    if text != golden:
        got, want = text.splitlines(), golden.splitlines()
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"row {i + 1} differs from {GOLDEN.name}:\n  {a}\n  {b}"
        return (f"{len(got)} rows differ in count from {GOLDEN.name}'s "
                f"{len(want)}")
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("json", nargs="?", default="BENCH_churn.json")
    p.add_argument("--run", metavar="BENCH_FIG4_FOLLOWSUN",
                   help="run `BENCH_FIG4_FOLLOWSUN churn` first, in a "
                        "temporary directory, and check its rows")
    args = p.parse_args()

    if args.run:
        with tempfile.TemporaryDirectory() as tmp:
            bench = str(Path(args.run).resolve())
            if subprocess.run([bench, "churn"], cwd=tmp,
                              stdout=subprocess.DEVNULL).returncode:
                print("bench_fig4_followsun churn failed", file=sys.stderr)
                return 1
            error = check(Path(tmp) / "BENCH_churn.json")
    else:
        error = check(Path(args.json))
    if error:
        print(error, file=sys.stderr)
        return 1
    print(f"churn rows OK, cases: {sorted(CASES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
