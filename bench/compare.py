#!/usr/bin/env python3
"""Compare two benchmark result sets: set vs set, or parent vs change.

    python3 bench/compare.py parent.json change.json

Each file is a set written by ``bench/run.py --out`` (or a single-run
record).  For every workload and end-to-end metric, it prints both medians
with their quartile spread and a verdict, using the bounds in
BENCHMARK.json:

* ``worse``      the change's median is worse than the parent's by more
                 than the bound;
* ``unresolved`` either side's spread (quartile distance over median)
                 exceeds the bound, unless every change run beats every
                 parent run (``setup_s`` is judged on its median only:
                 three short set-ups per run cannot average out host
                 drift);
* ``better``     a claimable gain: with at least 10 runs paired by seed,
                 the change wins at least 9 in 10 pairs (ties count for
                 neither) and the medians differ by more than the
                 parent's quartile distance;
* ``same``       anything else.

An ``output_sha`` or ``packets_decoded`` that differs for the same workload
and seed, or a run that reported incorrect output, is a correctness
regression.  Per-layer metrics are printed for attribution; they have no
bound.  Exit status 1 when anything is worse, unresolved or incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_GAIN = 10
GAIN_WIN_SHARE = 0.9
#: Metrics held to their bound by median only, never reported unresolved.
MEDIAN_ONLY = {"setup_s"}


def load_records(path) -> list:
    data = json.loads(Path(path).read_text())
    return data["records"] if "records" in data else [data]


def by_workload(records, trace: int) -> dict:
    """workload -> seed -> record, for records of one trace mode."""
    out = defaultdict(dict)
    for record in records:
        if record["trace"] == trace:
            out[record["workload"]][record["seed"]] = record
    return out


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(metric: dict, parent: dict, change: dict) -> tuple:
    """``(verdict, relative change)`` for one metric; runs keyed by seed."""
    sign = -1.0 if metric["better"] == "higher" else 1.0
    a, b = list(parent.values()), list(change.values())
    a_med, b_med = statistics.median(a), statistics.median(b)
    worse_by = sign * (b_med - a_med) / abs(a_med)
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    gain = (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= GAIN_WIN_SHARE * len(pairs)
        and abs(b_med - a_med) > iqr(a)
    )
    every_run_better = all(sign * (y - x) < 0 for x in a for y in b)
    bound = metric["bound"]
    if worse_by > bound:
        return "worse", worse_by
    too_wide = max(spread(a), spread(b)) > bound
    if too_wide and metric["name"] not in MEDIAN_ONLY and not every_run_better:
        return "unresolved", worse_by
    return ("better" if gain else "same"), worse_by


def correctness(parent_records, change_records) -> list:
    problems = []
    for record in change_records:
        if not record["correct"]:
            problems.append(
                f"{record['workload']} seed {record['seed']} trace "
                f"{record['trace']}: incorrect output ({'; '.join(record['errors'][:3])})"
            )
    for trace in (0, 1):
        parents = by_workload(parent_records, trace)
        changes = by_workload(change_records, trace)
        for workload, runs in changes.items():
            for seed, record in runs.items():
                before = parents.get(workload, {}).get(seed)
                if before is None or before.get("smoke") != record.get("smoke"):
                    continue
                for key in ("output_sha", "packets_decoded"):
                    if before[key] != record[key]:
                        problems.append(
                            f"{workload} seed {seed} trace {trace}: {key} "
                            f"changed {before[key]} -> {record[key]}"
                        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="results of the parent (or first set)")
    parser.add_argument("change", help="results of the change (or second set)")
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    parent_records = load_records(args.parent)
    change_records = load_records(args.change)

    failing = 0
    print(f"{'workload':12} {'metric':18} {'parent (spread)':>22} "
          f"{'change (spread)':>22} {'worse by':>9}  verdict")
    parents, changes = by_workload(parent_records, 0), by_workload(change_records, 0)
    for workload in sorted(set(parents) & set(changes)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = {s: r["metrics"][name] for s, r in parents[workload].items()}
            b = {s: r["metrics"][name] for s, r in changes[workload].items()}
            result, worse_by = verdict(metric, a, b)
            failing += result in ("worse", "unresolved")
            print(
                f"{workload:12} {name:18} "
                f"{statistics.median(a.values()):14.4g} ({spread(list(a.values())):5.1%}) "
                f"{statistics.median(b.values()):14.4g} ({spread(list(b.values())):5.1%}) "
                f"{worse_by:8.1%}  {result}"
            )

    parents, changes = by_workload(parent_records, 1), by_workload(change_records, 1)
    for workload in sorted(set(parents) & set(changes)):
        print(f"\nper-layer, {workload} (no bound):")
        for metric in spec["per_layer"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name] for r in parents[workload].values())
            b = statistics.median(r["metrics"][name] for r in changes[workload].values())
            change = (b - a) / abs(a) if a else float("nan")
            print(f"  {name:26} {a:12.4g} {b:12.4g} {change:+8.1%}")

    problems = correctness(parent_records, change_records)
    for problem in problems:
        print(f"CORRECTNESS REGRESSION: {problem}")
    return 1 if failing or problems else 0


if __name__ == "__main__":
    sys.exit(main())
