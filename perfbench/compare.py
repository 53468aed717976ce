"""Compare two sets of runs, for example a parent commit and a change.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of ``<workload>.jsonl`` files as
``steady.py --out`` writes them (or two such files).  One row per workload
and metric: each side's median and quartiles, the change as a ratio with
its base, the pairs the change won (runs paired by seed, ties count for
neither), and the verdict against the metric's bound:

* ``better``     -- the change won at least 9 of 10 pairs, and the medians
                    differ by more than the base's own quartile spread;
* ``unresolved`` -- the base's spread is wider than the bound, and not every
                    run of the change beats every run of the base;
* ``worse``      -- the median got worse by more than the bound;
* ``unchanged``  -- otherwise.

Each workload's header gives both sides' share of failed operations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import steady  # noqa: E402


def _runs(path: Path) -> Dict[str, List[Dict[str, Any]]]:
    files = [path] if path.is_file() else sorted(path.glob("*.jsonl"))
    out: Dict[str, List[Dict[str, Any]]] = {}
    for f in files:
        for record in steady.load(f):
            if not record.get("trace"):
                out.setdefault(record["workload"], []).append(record)
    return out


def verdict(base: List[float], new: List[float], pairs: List[tuple],
            better: str, bound: float) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    q1, b_med, q3 = common.quartiles(base)
    n_med = common.median(new)
    worse_by = -sign * (n_med - b_med) / abs(b_med)
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > (q3 - q1):
        word = "better"
    elif (q3 - q1) / abs(b_med) > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "unchanged"
    return word, wins


def _share(runs: List[Dict[str, Any]]) -> str:
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    ok = all(r["result"]["correct"] for r in runs)
    return f"failed {failed}/{attempted} = {failed / attempted:.4f}, correct={ok}"


def compare(base_runs, new_runs) -> int:
    regressions = 0
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[workload], new_runs[workload]
        print(f"\n== {workload}: base {len(base)} runs ({_share(base)}); "
              f"new {len(new)} runs ({_share(new)})")
        print(f"{'metric':<22} {'unit':>5} {'base median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'new/base':>9} {'won':>6} {'bound':>6}  verdict")
        b_metrics, n_metrics = steady.metric_values(base), steady.metric_values(new)
        for name, entry in b_metrics.items():
            if name not in n_metrics or entry["bound"] is None:
                continue
            bv, nv = entry["values"], n_metrics[name]["values"]
            new_by_seed = n_metrics[name]["by_seed"]
            pairs = [(value, new_by_seed[seed]) for seed, value in entry["by_seed"].items()
                     if seed in new_by_seed]
            word, wins = verdict(bv, nv, pairs, entry["better"], entry["bound"])
            regressions += word == "worse"
            bq, nq = common.quartiles(bv), common.quartiles(nv)
            print(f"{name:<22} {entry['unit']:>5} "
                  f"{bq[1]:>12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]".ljust(64)
                  + f"{nq[1]:>12.5g} [{nq[0]:.5g}, {nq[2]:.5g}]".ljust(36)
                  + f"{nq[1] / bq[1]:>9.4f} {wins:>3}/{len(pairs):<2} "
                  f"{entry['bound']:>6.2f}  {word}")
    print(f"\nratios are new/base, base = the base median shown; {regressions} worse")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    return compare(_runs(args.base), _runs(args.new))


if __name__ == "__main__":
    sys.exit(main())
