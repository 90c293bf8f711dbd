"""Compare benchmark results of a parent commit and a change.

Usage, from the repository root::

    python benchmarks/suite/compare.py --base P1.json [P2.json ...] \\
                                       --change C1.json [C2.json ...]

The inputs are files written by ``run.py --out``. Runs of one workload are
paired by seed, in the order they were recorded, so the alternating-pairs
procedure in README.md gives pair ``i`` = the ``i``-th parent and change
run on the same seed. For each (end-to-end metric, workload) pair, with the
direction and bound from ``BENCHMARK.json``:

* **gain** — there are at least ten pairs, the change wins at least 9 in
  10 of them (ties count for neither side), and the medians differ by more
  than the interquartile range of the parent's runs, and of the change's;
* **too few pairs** — the change looks like a gain but fewer than ten
  pairs were run;
* **unresolved** — the spread (interquartile range over median) of either
  side exceeds the bound, and neither side's runs all beat the other's;
* **regression** — the change's median is worse than the parent's by more
  than the bound;
* **same** — none of the above.

Traced runs are checked for counts instead: every per-layer metric with
unit ``count`` must match exactly, pair by pair. One row is printed per
workload; the exit code is 1 when any pair regressed, a count changed, or
the change failed more operations than the parent, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
WIN_SHARE = 0.9
#: Fewer pairs than this never make a gain, whatever they show.
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    base: Sequence[float], change: Sequence[float], pairs: Sequence[Tuple[float, float]],
    better: str, bound: float,
) -> dict:
    """Judge one (metric, workload) pair; ``pairs`` are (parent, change) runs."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means the change is worse
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    scale = abs(bmed) or 1.0
    worse = sign * (cmed - bmed) / scale
    spread = max((bq3 - bq1) / scale, (cq3 - cq1) / (abs(cmed) or 1.0))
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    all_worse = all(sign * (c - b) > 0 for c in change for b in base)
    gap = abs(cmed - bmed)
    if pairs and wins >= WIN_SHARE * len(pairs) and worse < 0 and gap > max(bq3 - bq1, cq3 - cq1):
        status = "gain" if len(pairs) >= MIN_PAIRS else "too few pairs"
    elif spread > bound and not (all_better or all_worse):
        status = "unresolved"
    elif worse > bound:
        status = "regression"
    else:
        status = "same"
    return {
        "status": status,
        "base_median": bmed,
        "change_median": cmed,
        "delta": (cmed - bmed) / scale,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "spread": spread,
    }


def load_runs(paths: Sequence[str]) -> List[dict]:
    runs: List[dict] = []
    for path in paths:
        runs.extend(json.loads(Path(path).read_text())["runs"])
    return runs


def pair_up(base: List[dict], change: List[dict]) -> List[Tuple[dict, dict]]:
    by_seed: Dict[int, List[dict]] = defaultdict(list)
    for run in change:
        by_seed[run["seed"]].append(run)
    taken: Dict[int, int] = defaultdict(int)
    pairs = []
    for run in base:
        seed = run["seed"]
        if taken[seed] < len(by_seed[seed]):
            pairs.append((run, by_seed[seed][taken[seed]]))
            taken[seed] += 1
    return pairs


def count_mismatches(pairs: List[Tuple[dict, dict]]) -> List[str]:
    """Names of ``count`` metrics that differ in any traced pair."""
    bad = set()
    for b, c in pairs:
        for name, metric in b["metrics"].items():
            if metric["unit"] == "count" and c["metrics"][name]["value"] != metric["value"]:
                bad.add(name)
    return sorted(bad)


def compare(base_runs: List[dict], change_runs: List[dict], spec: dict) -> Tuple[List[str], bool]:
    """Rows of the report (one per workload) and whether it failed."""
    failed = False
    rows = []
    workloads = sorted({r["workload"] for r in base_runs} & {r["workload"] for r in change_runs})
    for workload in workloads:
        cells = []
        for trace in (False, True):
            base = [r for r in base_runs if r["workload"] == workload and r["trace"] == trace]
            change = [r for r in change_runs if r["workload"] == workload and r["trace"] == trace]
            if not base or not change:
                continue
            pairs = pair_up(base, change)
            if sum(r["failed"] for r in change) > sum(r["failed"] for r in base):
                cells.append("MORE FAILED OPS")
                failed = True
            if trace:
                bad = count_mismatches(pairs)
                cells.append("counts: " + ("CHANGED " + ", ".join(bad) if bad else "equal"))
                failed |= bool(bad)
                continue
            for metric in spec["end_to_end"]:
                name = metric["name"]
                v = verdict(
                    [r["metrics"][name]["value"] for r in base],
                    [r["metrics"][name]["value"] for r in change],
                    [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in pairs],
                    metric["better"],
                    metric["bound"],
                )
                failed |= v["status"] == "regression"
                cells.append(
                    f"{name} {v['status']} {v['base_median']:.4g}->{v['change_median']:.4g} "
                    f"({v['delta']:+.1%}, wins {v['wins']}/{v['pairs']}, "
                    f"spread {v['spread']:.1%} vs bound {metric['bound']:.0%})"
                )
        rows.append(f"{workload:<11} | " + " | ".join(cells))
    return rows, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    rows, failed = compare(load_runs(args.base), load_runs(args.change), spec)
    for row in rows:
        print(row)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
