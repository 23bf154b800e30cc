"""Summarise one result file, or compare two, per workload and metric.

    python3 bench/compare.py base.jsonl [new.jsonl]

For each workload and metric it prints the median and quartiles of the
runs in each file and their spread, the distance between the quartiles
as a share of the median.  With two files it also prints the change of
the median and flags, for end-to-end metrics, every change worse than
the metric's bound in BENCHMARK.json and every spread wider than it.
Exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """(workload, metric) -> list of values, in file order."""
    values = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        workload = rec["meta"]["workload"]
        for name, metric in rec["result"]["metrics"].items():
            values[(workload, name)].append(metric["value"])
        values[(workload, "failed")].append(rec["result"]["failed"])
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, spread (IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if better == "lower" else -change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    files = [load(path) for path in argv]
    flagged = 0
    keys = sorted(set().union(*files))
    print(f"{'workload':16} {'metric':44} " + " | ".join(
        f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'n':>3}" for _ in files)
        + ("  change" if len(files) == 2 else ""))
    for workload, name in keys:
        cols, meds = [], []
        for values in files:
            vals = values.get((workload, name))
            if not vals:
                cols.append(f"{'-':>11} {'':>11} {'':>11} {'':>7} {0:>3}")
                meds.append(None)
                continue
            med, q1, q3, spread = summary(vals)
            meds.append(med)
            mark = ""
            bound = bounds.get(name, {}).get("bound")
            if bound is not None and name != "setup_s" and spread > bound:
                mark = "!"
                flagged += 1
            cols.append(f"{med:11.5g} {q1:11.5g} {q3:11.5g} {spread:6.1%}{mark or ' '} {len(vals):>3}")
        line = f"{workload:16} {name:44} " + " | ".join(cols)
        if len(files) == 2 and None not in meds:
            worse = worse_by(meds[0], meds[1], better.get(name, "lower"))
            bound = bounds.get(name, {}).get("bound")
            flag = bound is not None and worse > bound
            flagged += flag
            line += f"  {-worse:+7.1%}{' WORSE THAN BOUND' if flag else ''}"
        print(line)
    if flagged:
        print(f"{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
