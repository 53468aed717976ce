"""corpus-dense: an archive-shaped log through ETL, the store and a
2-worker store replay.

The log is written by ``corpus.fixtures`` before anything is timed, with
dense queues (tens of jobs per queue per 300 s epoch), so the kernel loop,
I/O and the fan-out dominate and refit work is light.  Each timed cycle:
``ingest`` -> open and verify the ``CorpusStore`` -> cold ``replay_store``
(2 workers, cache off) -> cached re-replay, then the fixture-ledger
operation: what ``ingest`` kept and dropped against the fixture's own
summary.
"""

from __future__ import annotations

import gzip
import json
import resource
from contextlib import nullcontext
import time
from pathlib import Path
from typing import Any, Dict, List

import checks
import common

FIXTURE_JOBS = 100_000
WARMUP_JOBS = 5_000
BASE_GAP_S = 1.5  # mean seconds between submissions across the 4 queues
WORKERS = 2
CYCLE_OPS = ("ingest", "open_verify", "replay", "cached_replay", "fixture_ledger")


def _paths(task: Dict[str, Any]) -> Dict[str, Path]:
    work = Path(task["workdir"])
    return {"log": work / "dense.swf.gz", "warm_log": work / "warm.swf.gz",
            "summary": work / "fixture.json", "prep_store": work / "store-prep",
            "warm_store": work / f"warm-{task['index']}",
            "store": work / f"store-{task['index']}"}


def _prepare(task: Dict[str, Any]) -> Dict[str, Any]:
    """Untimed: write both logs and fill the replay cache for the cached
    re-replay (the cache is keyed on data, not on the store's path)."""
    from repro.corpus.etl import ingest
    from repro.corpus.fixtures import expected_drops, generate_corpus_fixture
    from repro.corpus.replay import replay_store

    paths = _paths(task)
    summary = generate_corpus_fixture(paths["log"], jobs=FIXTURE_JOBS,
                                      seed=2 * task["seed"] + 1, base_gap=BASE_GAP_S)
    generate_corpus_fixture(paths["warm_log"], jobs=WARMUP_JOBS,
                            seed=2 * task["seed"] + 2, base_gap=BASE_GAP_S)
    store, _ = ingest(paths["log"], paths["prep_store"])
    replay_store(store, jobs=WORKERS, cache=True)
    with gzip.open(paths["log"], "rb") as fh:
        records = sum(1 for line in fh if line.strip() and not line.startswith(b";"))
    info = {"jobs": summary.jobs, "records": records,
            "queues": summary.queues, "expected_drops": expected_drops(summary),
            "duration_s": summary.duration_seconds}
    paths["summary"].write_text(json.dumps(info))
    return info


def _cycle(paths, summary, tracer=None) -> Dict[str, Any]:
    """One timed cycle; returns its timings, counts and check failures."""
    from repro.corpus.etl import ingest
    from repro.corpus.replay import replay_store
    from repro.corpus.store import CorpusStore

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    out: Dict[str, Any] = {"ledger_errors": [], "errors": []}
    t0 = time.perf_counter()
    with span("corpus.etl.ingest"):
        _, stats = ingest(paths["log"], paths["store"], force=True)
    t1 = time.perf_counter()
    with span("corpus.store.open"):
        store = CorpusStore(paths["store"])
    t2 = time.perf_counter()
    with span("corpus.store.verify"):
        verified = store.verify()
    t3 = time.perf_counter()
    with span("corpus.replay.replay_store"):
        cold = replay_store(store, jobs=WORKERS, cache=False)
    t4 = time.perf_counter()
    with span("runtime.cache.cached_replay"):
        cached = replay_store(store, jobs=WORKERS, cache=True)
    t5 = time.perf_counter()
    view = store.view()
    store_queues = {q: view.queue_rows(q) for q in view.queues()}
    out["errors"] += checks.check_ingest_accounting(
        summary["records"], stats.read, stats.kept, dict(stats.drops), store.rows,
        store_queues)
    out["ledger_errors"] = checks.check_fixture_ledger(
        summary["queues"], summary["jobs"], store_queues, store.rows,
        dict(stats.drops), summary["expected_drops"])
    if not verified["ok"]:
        out["errors"].append("store.verify() reports a checksum mismatch")
    out["errors"] += checks.check_coverage_rows(cold["queues"])
    out["errors"] += checks.check_cached_identity(cold, cached)
    units = cold["provenance"]["units"]
    out.update({
        "ingest_s": t1 - t0, "open_s": t2 - t1, "verify_s": t3 - t2,
        "replay_s": t4 - t3, "cached_s": t5 - t4, "cycle_s": t5 - t0,
        "rows_read": stats.read, "rows_kept": stats.kept,
        "dropped": sum(stats.drops.values()), "bytes": store.nbytes(),
        "jobs_replayed": cold["jobs_replayed"],
        "unit_s": [u["seconds"] for u in units],
        "hits": cached["provenance"]["cache"]["hits"],
        "misses": cached["provenance"]["cache"]["misses"],
    })
    return out


def worker(task: Dict[str, Any], ready) -> Dict[str, Any]:
    if task.get("role") == "prepare":
        ready()
        return _prepare(task)
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import)
    import_s = time.perf_counter() - t0
    from repro.core.rare_event import default_rare_event_table
    t0 = time.perf_counter()
    default_rare_event_table()
    table_s = time.perf_counter() - t0
    from repro.corpus.etl import ingest
    from repro.corpus.replay import replay_store

    paths = _paths(task)
    summary = json.loads(paths["summary"].read_text())
    store, _ = ingest(paths["warm_log"], paths["warm_store"])  # the warm-up pass
    store.verify()
    replay_store(store, jobs=WORKERS, cache=False)
    ready()

    tracer = None
    if task["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    cycles: List[Dict[str, Any]] = []
    failed = 0
    errors: List[str] = []
    deadline = time.perf_counter() + task["seconds"]
    while not cycles or time.perf_counter() < deadline:
        traced = tracer is not None and len(cycles) % 2 == 1
        cycle = _cycle(paths, summary, tracer if traced else None)
        cycle["traced"] = traced
        if cycle["ledger_errors"]:
            failed += 1  # the fixture's summary disagrees with its own log
        errors += cycle.pop("errors")
        cycles.append(cycle)
    out: Dict[str, Any] = {"import_s": import_s, "table_s": table_s,
                           "cycles": cycles, "failed": failed, "errors": errors}
    if tracer is not None and task["index"] == 0:
        out["layers"] = _layer_extras(paths, tracer)
        tracer.dump(common.spans_path("corpus-dense", task["seed"]))
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = rss / 1024.0
    return out


def _layer_extras(paths, tracer) -> Dict[str, float]:
    """Plan time, and one queue replayed in-process with counted predictor
    calls, to split unit compute between simulator and core."""
    from repro.corpus.replay import DEFAULT_MIN_QUEUE_JOBS, DEFAULT_SPLIT_THRESHOLD, plan_units
    from repro.corpus.store import CorpusStore
    from repro.simulator.replay import ReplayConfig, replay
    from repro.verify.conformance import make_bank

    import replay_sparse
    from tracer import Tracer

    store = CorpusStore(paths["store"])
    view = store.view()
    t0 = time.perf_counter()
    with tracer.span("corpus.replay.plan"):
        units, _ = plan_units(view, site=store.site, min_queue_jobs=DEFAULT_MIN_QUEUE_JOBS,
                              split_threshold=DEFAULT_SPLIT_THRESHOLD)
    plan_s = time.perf_counter() - t0
    queue = max(view.queues(), key=view.queue_rows)
    bank = make_bank()
    counted = Tracer()
    for pred in bank.values():
        for call, label in replay_sparse.METHOD_CALLS.items():
            counted.wrap_method(pred, call, f"core.predictor.{label}")
    t0 = time.perf_counter()
    results = replay(view.by_queue(queue), bank, ReplayConfig(epoch=300.0))
    wall = time.perf_counter() - t0
    extras = {"corpus.replay.plan_s": plan_s, "corpus.replay.units": len(units),
              "core.changepoint.fires": sum(r.change_points for r in results.values())}
    in_calls = 0.0
    for name, (calls, secs) in counted.counters.items():
        extras[f"{name}.calls"] = calls
        extras[f"{name}.s"] = secs
        in_calls += secs
    extras["simulator.self_s"] = wall - in_calls
    extras["core_share"] = in_calls / wall
    return extras


# --------------------------------------------------------------------------
# Orchestrator side.
# --------------------------------------------------------------------------


def run(args, workdir) -> tuple:
    base = {"workload": "corpus-dense", "seed": args.seed, "trace": bool(args.trace),
            "workdir": str(workdir)}
    prep = common.run_workers(workdir, [{**base, "role": "prepare", "index": -1}])[0]
    tasks = [{**base, "seconds": args.seconds / common.SETUP_SAMPLES, "index": i}
             for i in range(common.SETUP_SAMPLES)]
    results = common.run_workers(workdir, tasks)
    cycles = [c for res in results for c in res["cycles"]]
    plain = [c for c in cycles if not c["traced"]]
    errors = [e for res in results for e in res["errors"]]
    ledger_errors = sorted({e for c in cycles for e in c["ledger_errors"]})
    setup = [res["setup_s"] for res in results]
    med = lambda key, cs=plain: common.median([c[key] for c in cs])  # noqa: E731
    e2e = {
        "setup_s": common.median(setup),
        "jobs_per_s": common.median([c["jobs_replayed"] / c["replay_s"] for c in plain]),
        "peak_rss_mb": common.median([res["peak_rss_mb"] for res in results]),
    }
    report = {
        "workload": "corpus-dense", "fixture": {k: prep[k] for k in
                                                ("jobs", "records", "queues", "expected_drops")},
        "workers": WORKERS, "cycles": len(plain), "setup_samples": setup,
        "ingest_rows_per_s": common.median([c["rows_read"] / c["ingest_s"] for c in plain]),
        "cycle_s": [c["cycle_s"] for c in plain], "replay_s": [c["replay_s"] for c in plain],
        "errors": errors[:20], "fixture_ledger_failures": ledger_errors,
        "e2e": e2e,
    }
    attempted = len(CYCLE_OPS) * len(cycles)
    failed = sum(res["failed"] for res in results)
    layers: Dict[str, float] = {}
    if args.trace:
        traced = [c for c in cycles if c["traced"]]
        extras = dict(results[0].get("layers", {}))
        core_share = extras.pop("core_share")
        busy = [sum(c["unit_s"]) for c in traced]
        replay_s = [c["replay_s"] for c in traced]
        layers = {
            "import_s": common.median([r["import_s"] for r in results]),
            "core.rare_event.table_s": common.median([r["table_s"] for r in results]),
            "corpus.etl.ingest_s": med("ingest_s", traced),
            "corpus.etl.rows": med("rows_read", traced),
            "corpus.etl.dropped": med("dropped", traced),
            "corpus.store.open_s": med("open_s", traced),
            "corpus.store.verify_s": med("verify_s", traced),
            "corpus.store.bytes": med("bytes", traced),
            "runtime.engine.unit_busy_s": common.median(busy),
            "runtime.engine.straggler_s": common.median([max(c["unit_s"]) for c in traced]),
            "runtime.engine.efficiency": common.median(
                [b / (WORKERS * r) for b, r in zip(busy, replay_s)]),
            "runtime.cache.cached_replay_s": med("cached_s", traced),
            "runtime.cache.hits": med("hits", traced),
            "runtime.cache.misses": med("misses", traced),
            **extras,
        }
        # Layer table of one traced cycle: ETL and the store are corpus;
        # unit compute (busy / workers of the wall) splits between core and
        # simulator as the in-process replay did; the rest of both store
        # replays is planning, runtime fan-out, dispatch, merge and cache.
        unit_wall = common.median(busy) / WORKERS
        layers["self_s.corpus"] = (layers["corpus.etl.ingest_s"] + layers["corpus.store.open_s"]
                                   + layers["corpus.store.verify_s"])
        layers["self_s.core"] = unit_wall * core_share
        layers["self_s.simulator"] = unit_wall * (1.0 - core_share)
        layers["self_s.runtime"] = (common.median(replay_s) - unit_wall
                                    + layers["runtime.cache.cached_replay_s"])
        untraced_cycle = med("cycle_s")
        layers["trace.residual_s"] = untraced_cycle - sum(
            layers[f"self_s.{k}"] for k in ("corpus", "core", "simulator", "runtime"))
        layers["trace.overhead_pct"] = 100.0 * (med("cycle_s", traced) / untraced_cycle - 1.0)
        report["layers"] = layers
    return report, not errors, attempted, failed, e2e, layers
