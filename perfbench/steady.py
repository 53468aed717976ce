"""Steadiness: run workloads repeatedly in fresh processes, one seed each.

    python3 perfbench/steady.py --out DIR [--workload NAME ...] [--runs 10]
        [--first-seed 1] [--trace 0|1]

Every run measures for ``BENCHMARK.json``'s ``run_seconds``.  Appends
every run's two output lines to ``DIR/<workload>.jsonl`` and prints,
per workload and metric, the median, the quartiles, the spread (IQR as a
share of the median) and the largest deviation from the median.  The
end-to-end spreads are held against ``BENCHMARK.json``'s bounds: a metric is
steady when its spread is below a third of its bound.  ``setup_s`` is held
only to its median (its bound is for drift between two sets of runs).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import run as bench  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(common.ROOT), timeout=900,
    )
    if proc.returncode != 0:
        raise common.BenchError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                                f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": time.perf_counter() - started,
            "report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def load(path: Path) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def record_metrics(record: Dict[str, Any], e2e: Dict[str, Any]) -> Dict[str, tuple]:
    """name -> (value, unit, better, bound) of one run: the result line's
    metrics, then the report's own workload metrics."""
    out = {}
    for name, m in record["result"]["metrics"].items():
        spec = e2e.get(name, {})
        out[name] = (m["value"], m["unit"], spec.get("better"), spec.get("bound"))
    for name, (unit, better, bound) in common.REPORT_METRICS.get(record["workload"], {}).items():
        if record["report"].get(name) is not None:
            out[name] = (record["report"][name], unit, better, bound)
    return out


def metric_values(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """name -> {"values", "by_seed", "unit", "better", "bound"} over runs."""
    e2e, _ = bench.declared_metrics()
    out: Dict[str, Dict[str, Any]] = {}
    for record in runs:
        for name, (value, unit, better, bound) in record_metrics(record, e2e).items():
            entry = out.setdefault(name, {"values": [], "by_seed": {}, "unit": unit,
                                          "better": better, "bound": bound})
            entry["values"].append(value)
            entry["by_seed"][record["seed"]] = value
    return out


def summarize(runs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows = []
    for name, entry in metric_values(runs).items():
        values = entry["values"]
        q1, med, q3 = common.quartiles(values)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        deviation = max(abs(v - med) for v in values) / abs(med) if med else float("inf")
        bound = entry["bound"]
        if bound is None:
            verdict = "-"
        elif name == "setup_s":
            verdict = "median only"
        else:
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        rows.append({"metric": name, "unit": entry["unit"], "n": len(values),
                     "median": med, "q1": q1, "q3": q3, "spread": spread,
                     "max_dev": deviation, "bound": bound, "verdict": verdict})
    return rows


def failed_share(runs: List[Dict[str, Any]]) -> str:
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
    return f"{failed}/{attempted} failed; per-run shares {shares}"


def print_table(workload: str, runs: List[Dict[str, Any]]) -> None:
    correct = all(r["result"]["correct"] for r in runs)
    print(f"\n== {workload}: {len(runs)} runs, all correct: {correct}; {failed_share(runs)}")
    print(f"{'metric':<30} {'unit':>6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'maxdev':>7} {'bound':>6}  verdict")
    for row in summarize(runs):
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['metric']:<30} {row['unit']:>6} {row['n']:>3} {row['median']:>12.5g} "
              f"{row['q1']:>12.5g} {row['q3']:>12.5g} {row['spread']:>7.3f} "
              f"{row['max_dev']:>7.3f} {bound:>6}  {row['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=bench.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summarize-only", action="store_true",
                        help="print the tables for runs already in --out")
    args = parser.parse_args(argv)
    seconds = bench.run_seconds()
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or bench.WORKLOADS:
        path = args.out / f"{workload}.jsonl"
        if not args.summarize_only:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                record = run_once(workload, seed, seconds, args.trace)
                with path.open("a") as fh:
                    fh.write(json.dumps(record) + "\n")
                e2e = {k: round(v["value"], 4) for k, v in record["result"]["metrics"].items()}
                print(f"{workload} seed {seed}: {e2e}", flush=True)
        if path.exists():
            print_table(workload, load(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
