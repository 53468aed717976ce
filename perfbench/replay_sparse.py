"""replay-sparse: the 9-method bank replayed over a sparse AR(1) trace.

About one job per 300 s epoch, so per-method refit and history upkeep in
``core`` and ``baselines`` do most of the work and the ``simulator`` loop
little.  One single-threaded process at a time.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Dict, List

import checks
import common
import inputs

EPOCH = 300.0
#: Predictor calls the traced run counts, and the name each is counted
#: under (``refit_if_stale`` is the engine's refit entry point).
METHOD_CALLS = {"observe": "observe", "observe_batch": "observe_batch",
                "feed_scored": "feed_scored", "refit": "refit",
                "refit_if_stale": "refit", "predict": "predict"}


def _bank_summary(results: Dict[str, Any]) -> Dict[str, Any]:
    return {name: {"evaluated": r.n_evaluated, "correct": r.n_correct,
                   "median_ratio": r.median_ratio, "change_points": r.change_points}
            for name, r in results.items()}


def _check_rep(summary: Dict[str, Any], submits, waits) -> List[str]:
    mo = summary["max-observed"]
    return (checks.check_max_observed(submits, waits, EPOCH, mo["correct"], mo["median_ratio"])
            + checks.check_bank(len(submits), {k: v["evaluated"] for k, v in summary.items()},
                                summary["bmbp"]["correct"]))


def worker(task: Dict[str, Any], ready) -> Dict[str, Any]:
    """One fresh interpreter: set up, measure its share, check every rep."""
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import)
    import_s = time.perf_counter() - t0
    from repro.core.rare_event import default_rare_event_table
    t0 = time.perf_counter()
    default_rare_event_table()
    table_s = time.perf_counter() - t0
    from repro.simulator.replay import ReplayConfig, replay
    from repro.verify.conformance import make_bank
    from repro.workloads.trace import Trace

    submits, waits = inputs.sparse_trace(task["seed"])
    trace = Trace.from_arrays(submits, waits, name="replay-sparse")
    config = ReplayConfig(epoch=EPOCH)
    t0 = time.perf_counter()
    replay(trace, make_bank(), config)
    first_pass_s = time.perf_counter() - t0
    ready()

    tracer = None
    if task["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    reps: List[Dict[str, Any]] = []
    errors: List[str] = []
    failed = 0
    deadline = time.perf_counter() + task["seconds"]
    while not reps or time.perf_counter() < deadline:
        # Traced runs alternate untraced and traced reps, so both see the
        # same warm state and the overhead is a like-for-like ratio.
        traced = tracer is not None and len(reps) % 2 == 1
        bank = make_bank()
        if traced:
            for name, pred in bank.items():
                for call, label in METHOD_CALLS.items():
                    tracer.wrap_method(pred, call, f"core.predictor.{label}")
            before = {k: list(v) for k, v in tracer.counters.items()}
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("simulator.replay"):
                    results = replay(trace, bank, config)
            else:
                results = replay(trace, bank, config)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            failed += 1
            errors.append(f"replay raised {exc!r}")
            reps.append({"s": time.perf_counter() - t0, "traced": traced, "failed": True})
            continue
        rep = {"s": time.perf_counter() - t0, "traced": traced,
               "bank": _bank_summary(results)}
        if traced:
            rep["calls"] = {k: [v[0] - before.get(k, [0, 0.0])[0],
                                v[1] - before.get(k, [0, 0.0])[1]]
                            for k, v in tracer.counters.items()}
        errors += _check_rep(rep["bank"], submits, waits)
        reps.append(rep)

    out: Dict[str, Any] = {
        "import_s": import_s, "table_s": table_s, "first_pass_s": first_pass_s,
        "reps": reps, "failed": failed,
    }
    if task["index"] == 0:
        # Untimed: BMBP's per-job quotes must each be a wait that had
        # started by the time it was quoted.
        recorded = replay(trace, {"bmbp": make_bank()["bmbp"]},
                          ReplayConfig(epoch=EPOCH, record_jobs=True))["bmbp"]
        errors += checks.check_quotes_are_started_waits(
            submits, waits, [j.submit_time for j in recorded.jobs],
            [j.predicted for j in recorded.jobs])
    if tracer is not None and task["index"] == 0:
        out["layers"] = _layer_extras(trace, config, make_bank, replay, tracer)
        tracer.dump(common.spans_path("replay-sparse", task["seed"]))
    out["errors"] = errors
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _layer_extras(trace, config, make_bank, replay, tracer) -> Dict[str, float]:
    """Per-method replays and the history's allocation peak (traced only)."""
    import tracemalloc

    extras: Dict[str, float] = {}
    for name in make_bank():
        pred = make_bank()[name]
        t0 = time.perf_counter()
        with tracer.span(f"baselines.{name}"):
            replay(trace, {name: pred}, config)
        extras[f"baselines.{name}.s"] = time.perf_counter() - t0
    tracemalloc.start()
    try:
        replay(trace, make_bank(), config)
        extras["core.history.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return extras


# --------------------------------------------------------------------------
# Orchestrator side.
# --------------------------------------------------------------------------


def run(args, workdir) -> tuple:
    tasks = [{"workload": "replay-sparse", "seed": args.seed, "trace": bool(args.trace),
              "seconds": args.seconds / common.SETUP_SAMPLES, "index": i,
              "workdir": str(workdir)}
             for i in range(common.SETUP_SAMPLES)]
    results = common.run_workers(workdir, tasks)
    n_jobs = inputs.SPARSE_JOBS
    reps = [r for res in results for r in res["reps"] if not r.get("failed")]
    plain = [r["s"] for r in reps if not r["traced"]]
    traced = [r["s"] for r in reps if r["traced"]]
    errors = [e for res in results for e in res["errors"]]
    failed = sum(res["failed"] for res in results)
    attempted = sum(len(res["reps"]) for res in results)
    setup = [res["setup_s"] for res in results]
    e2e = {
        "setup_s": common.median(setup),
        "jobs_per_s": n_jobs / common.median(plain),
        "peak_rss_mb": common.median([res["peak_rss_mb"] for res in results]),
    }
    report = {
        "workload": "replay-sparse", "jobs": n_jobs, "epoch": EPOCH,
        "reps": len(plain), "setup_samples": setup,
        "rep_s": plain, "errors": errors[:20],
        "e2e": e2e,
    }
    layers: Dict[str, float] = {}
    if args.trace:
        layers = _layers(results, plain, traced, n_jobs)
        report["layers"] = layers
    return report, not errors, attempted, failed, e2e, layers


def _layers(results, plain, traced, n_jobs) -> Dict[str, float]:
    layers: Dict[str, float] = {
        "import_s": common.median([r["import_s"] for r in results]),
        "core.rare_event.table_s": common.median([r["table_s"] for r in results]),
        "simulator.first_pass_s": common.median(
            [r["first_pass_s"] for r in results]) - common.median(plain),
    }
    traced_reps = [r for res in results for r in res["reps"]
                   if r.get("traced") and not r.get("failed")]
    per_call: Dict[str, List[float]] = {}
    core_s, sim_s = [], []
    for rep in traced_reps:
        in_calls = 0.0
        for name, (calls, secs) in rep["calls"].items():
            per_call.setdefault(f"{name}.calls", []).append(calls)
            per_call.setdefault(f"{name}.s", []).append(secs)
            in_calls += secs
        core_s.append(in_calls)
        sim_s.append(rep["s"] - in_calls)
    for name, values in per_call.items():
        layers[name] = common.median(values)
    layers["core.changepoint.fires"] = sum(
        m["change_points"] for m in traced_reps[0]["bank"].values())
    layers["simulator.self_s"] = common.median(sim_s)
    # Predictor calls cover both core's base class and the baselines'
    # overrides, so ``self_s.core`` holds the two layers together.
    layers["self_s.core"] = common.median(core_s)
    layers["self_s.simulator"] = layers["simulator.self_s"]
    layers.update(results[0].get("layers", {}))
    layers["trace.residual_s"] = common.median(plain) - (
        layers["self_s.core"] + layers["self_s.simulator"])
    layers["trace.overhead_pct"] = 100.0 * (common.median(traced) / common.median(plain) - 1.0)
    return layers
