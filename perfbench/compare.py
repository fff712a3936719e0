"""Compare two benchmark result sets (parent vs change), or summarize one.

    python3 perfbench/compare.py PARENT_DIR [CHANGE_DIR]

Each directory holds the per-invocation records ``run.py`` writes
(``.perfbench/results/*.json``; copy them aside between commits).  Only
untraced records are read.  For every workload x end-to-end metric the
tool prints, per side, the number of runs, the median and quartiles of the
runs' values, and the spread (q3 - q1) / median.  With two sides it also
prints the change in median and the share of pairs the change won: runs
are paired in the order they were made (parent run i with change run i,
as when the two sides alternate), ties count for neither side.

Verdicts, with the bound each metric has in ``BENCHMARK.json``:

* ``unresolved``  either side's spread exceeds the bound;
* ``regressed``   the change's median is worse than the parent's by more
                  than the bound;
* ``improved``    the change won at least 9 in 10 pairs and the medians
                  differ by more than the parent's q3 - q1;
* ``same``        otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """workload -> metric -> values, in the order the runs were made."""
    records = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as stream:
            record = json.load(stream)
        if not record.get("trace"):
            records.append((os.path.basename(path).rsplit("-", 1)[-1], record))
    records.sort(key=lambda item: int(item[0].split(".")[0]))
    table: dict = {}
    for _, record in records:
        for name, value in record["metrics"].items():
            table.setdefault(record["workload"], {}).setdefault(
                name, []
            ).append(value)
    return table


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / median if median else 0.0


def verdict(parent, change, bound, better) -> tuple:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = summary(parent)
    c_med = statistics.median(change)
    if spread(parent) > bound or spread(change) > bound:
        return won, "unresolved"
    if sign * (c_med - p_med) < -bound * p_med:
        return won, "regressed"
    if won >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        return won, "improved"
    return won, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two perfbench result sets per workload and metric."
    )
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument(
        "--benchmark", default=os.path.join(ROOT, "BENCHMARK.json")
    )
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as stream:
        metrics = {m["name"]: m for m in json.load(stream)["end_to_end"]}
    parent = load(args.parent)
    change = load(args.change) if args.change else None
    if not parent:
        print(f"no untraced records in {args.parent}", file=sys.stderr)
        return 1
    header = f"{'workload':<18s} {'metric':<13s} {'n':>3s} {'median':>12s} " \
             f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}"
    if change is not None:
        header += f" {'change':>12s} {'delta':>8s} {'won':>5s}  verdict"
    print(header)
    worst = 0
    for workload in sorted(parent):
        for name, spec in metrics.items():
            values = parent[workload].get(name)
            if not values:
                continue
            q1, median, q3 = summary(values)
            line = (f"{workload:<18s} {name:<13s} {len(values):>3d} "
                    f"{median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                    f"{spread(values):>7.1%} {spec['bound']:>6.0%}")
            if change is not None:
                other = change.get(workload, {}).get(name)
                if not other:
                    line += "  (no change runs)"
                else:
                    won, result = verdict(
                        values, other, spec["bound"], spec["better"]
                    )
                    c_med = statistics.median(other)
                    line += (f" {c_med:>12.6g} "
                             f"{(c_med - median) / median:>+8.1%} "
                             f"{won:>5.0%}  {result}")
                    if result == "regressed":
                        worst = 1
            print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main())
