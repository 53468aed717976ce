"""The repo benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, from the root of a checkout.

Runs one workload (``replay-sparse``, ``corpus-dense`` or ``serve-mixed``)
in fresh processes, checks the program's outputs, and prints two lines: a
detailed ``{"report": ...}`` line (run envelope, every workload metric,
check failures), then the result line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics
declared in ``BENCHMARK.json``; ``--trace 1`` reports its per-layer
metrics, where a layer the workload does not reach reads 0.

See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("replay-sparse", "corpus-dense", "serve-mixed")


def _spec():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def declared_metrics():
    """(end-to-end, per-layer): name -> its entry in BENCHMARK.json."""
    spec = _spec()
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def run_seconds() -> float:
    return float(_spec()["run_seconds"])


def _select(measured, declared, what, absent=None):
    """The declared metrics from ``measured``; an undeclared one is an
    error, and so is a missing one unless ``absent`` gives its value."""
    unknown = sorted(set(measured) - set(declared))
    missing = sorted(set(declared) - set(measured)) if absent is None else []
    if unknown or missing:
        raise common.BenchError(f"{what} metrics: undeclared {unknown}, missing {missing}")
    return {name: common.metric(measured.get(name, absent), spec["unit"])
            for name, spec in declared.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        common.require_sources()
        e2e_specs, layer_specs = declared_metrics()
    except (common.BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "replay-sparse":
        import replay_sparse as module
    elif args.workload == "corpus-dense":
        import corpus_dense as module
    else:
        import serve_mixed as module

    common.compile_sources()
    workdir = common.make_workdir(args.workload)
    try:
        report, correct, attempted, failed, e2e, layers = module.run(args, workdir)
        if args.trace:
            metrics = _select(layers, layer_specs, "per-layer", absent=0.0)
        else:
            metrics = _select(e2e, e2e_specs, "end-to-end")
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["envelope"] = common.envelope(args.seed)
    common.emit(report, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
