"""Each benchmark check passes on the program's real output and fails on a
perturbed copy of it.

Run from the repo root: ``PYTHONPATH=src python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import inputs  # noqa: E402

EPOCH = 300.0


@pytest.fixture(scope="module")
def sparse():
    """A short sparse trace and the bank's real replay of it."""
    from repro.simulator.replay import ReplayConfig, replay
    from repro.verify.conformance import make_bank
    from repro.workloads.trace import Trace

    rng = np.random.default_rng(11)
    n = 3000
    submits = np.cumsum(rng.exponential(inputs.SPARSE_GAP_S, n))
    waits = inputs.ar1_lognormal(rng, n)
    trace = Trace.from_arrays(submits, waits, name="t")
    results = replay(trace, make_bank(), ReplayConfig(epoch=EPOCH))
    bmbp = replay(trace, {"bmbp": make_bank()["bmbp"]},
                  ReplayConfig(epoch=EPOCH, record_jobs=True))["bmbp"]
    return submits, waits, results, bmbp


def test_wilson_high_matches_the_programs_interval():
    from repro.verify.conformance import wilson_interval

    for successes, trials in ((95, 100), (1700, 1800), (50, 50), (0, 7)):
        assert math.isclose(checks.wilson_high(successes, trials),
                            wilson_interval(successes, trials)[1], rel_tol=1e-12)


def test_max_observed_recompute(sparse):
    submits, waits, results, _ = sparse
    mo = results["max-observed"]
    assert checks.check_max_observed(submits, waits, EPOCH, mo.n_correct, mo.median_ratio) == []
    assert checks.check_max_observed(submits, waits, EPOCH, mo.n_correct - 1, mo.median_ratio)
    nudged = float(np.nextafter(mo.median_ratio, 1.0))
    assert checks.check_max_observed(submits, waits, EPOCH, mo.n_correct, nudged)


def test_bmbp_quotes_are_started_waits(sparse):
    submits, waits, _, bmbp = sparse
    times = [j.submit_time for j in bmbp.jobs]
    quotes = [j.predicted for j in bmbp.jobs]
    assert checks.check_quotes_are_started_waits(submits, waits, times, quotes) == []
    scaled = list(quotes)
    scaled[10] *= 1.0001
    assert checks.check_quotes_are_started_waits(submits, waits, times, scaled)
    # A real wait, but of the last job, which had not started yet.
    early = list(quotes)
    early[0] = float(waits[-1])
    assert checks.check_quotes_are_started_waits(submits, waits, times, early)


def test_bank_counts_and_coverage(sparse):
    submits, _, results, _ = sparse
    evaluated = {k: r.n_evaluated for k, r in results.items()}
    correct = results["bmbp"].n_correct
    assert checks.check_bank(len(submits), evaluated, correct) == []
    short = dict(evaluated, weibull=evaluated["weibull"] - 1)
    assert checks.check_bank(len(submits), short, correct)
    assert checks.check_bank(len(submits), evaluated, int(0.9 * evaluated["bmbp"]))


def test_ingest_accounting():
    queues = {"a": 10, "b": 5}
    drops = {"clock_skew": 2, "zero_procs": 1}
    assert checks.check_ingest_accounting(18, 18, 15, drops, 15, queues) == []
    assert checks.check_ingest_accounting(19, 18, 15, drops, 15, queues)
    assert checks.check_ingest_accounting(18, 18, 16, drops, 16, {"a": 11, "b": 5})
    assert checks.check_ingest_accounting(18, 18, 15, drops, 14, {"a": 10, "b": 4})
    assert checks.check_ingest_accounting(18, 18, 15, drops, 15, {"a": 10, "b": 4})


def test_fixture_ledger():
    queues = {"a": 10, "b": 5}
    drops = {"clock_skew": 2, "zero_procs": 1}
    assert checks.check_fixture_ledger(queues, 15, dict(queues), 15, drops, dict(drops)) == []
    assert checks.check_fixture_ledger(queues, 15, {"a": 11, "b": 5}, 16, drops, drops)
    assert checks.check_fixture_ledger(queues, 15, {"a": 10, "b": 4, "c": 1}, 15, drops, drops)
    assert checks.check_fixture_ledger(queues, 15, queues, 15,
                                       {"clock_skew": 1, "zero_procs": 1}, drops)


def _row(correct, evaluated, passed=True):
    return {"jobs": evaluated, "coverage": {"evaluated": evaluated, "correct": correct,
                                            "passed": passed}}


def test_coverage_rows():
    good = {"q1": _row(970, 1000), "q2": _row(96, 100), "tiny": {"jobs": 3, "skipped": True}}
    assert checks.check_coverage_rows(good) == []
    assert checks.check_coverage_rows({**good, "q1": _row(900, 1000)})
    assert checks.check_coverage_rows({**good, "q1": _row(970, 1000, passed=False)})
    assert checks.check_coverage_rows({"tiny": {"jobs": 3, "skipped": True}})


def test_cached_identity():
    cold = {"site": "s", "rows": 9, "jobs_replayed": 9, "methods": ["bmbp"],
            "queues": {"q": _row(9, 9)}, "coverage_pass": True, "seconds": 1.0,
            "provenance": {"cache": {"hits": 0, "misses": 0}, "units": [{}, {}]}}
    cached = copy.deepcopy(cold)
    cached["seconds"] = 0.01
    cached["provenance"]["cache"] = {"hits": 2, "misses": 0}
    assert checks.check_cached_identity(cold, cached) == []
    changed = copy.deepcopy(cached)
    changed["queues"]["q"]["coverage"]["correct"] = 8
    assert checks.check_cached_identity(cold, changed)
    missed = copy.deepcopy(cached)
    missed["provenance"]["cache"] = {"hits": 1, "misses": 1}
    assert checks.check_cached_identity(cold, missed)


@pytest.fixture(scope="module")
def served():
    """A serve-mixed stream applied in order to an in-process forecaster:
    the stream and every bound it served as ``(queue, bound, horizon)``."""
    from repro.service.forecaster import QueueForecaster

    stream = inputs.serve_stream(3, 1500)
    forecaster = QueueForecaster()
    values = []
    for index, req in enumerate(stream):
        if req["op"] == "submit":
            bound = forecaster.job_submitted(req["job"], req["queue"], req["procs"], req["now"])
        elif req["op"] == "start":
            forecaster.job_started(req["job"], req["now"])
            continue
        elif req["op"] == "cancel":
            forecaster.job_cancelled(req["job"])
            continue
        else:
            bound = forecaster.forecast(req["queue"], req.get("procs"))
        if bound is not None:
            values.append((req["queue"], bound, index))
    assert len(values) > 100
    return stream, values


def test_served_values(served):
    stream, values = served
    started = checks.started_waits(stream)
    assert checks.check_served_values(values, started) == []
    queue, bound, index = values[-1]
    assert checks.check_served_values([(queue, bound + 1.0, index)], started)
    assert checks.check_served_values([(queue, bound - 1.0, index)], started)
    other = next(q for q in started if q != queue)
    assert checks.check_served_values([(other, bound, index)], started)
    # A wait of its queue, but of a job that starts after the quote.
    later = max(started[queue], key=started[queue].get)
    assert checks.check_served_values([(queue, later, index)], started)


def test_quote_coverage():
    assert checks.check_quote_coverage([(10.0, 9.0)] * 100) == []
    assert checks.check_quote_coverage([(10.0, 9.0)] * 80 + [(10.0, 11.0)] * 20)


def test_serve_stream_is_seeded_and_ordered():
    one, two = inputs.serve_stream(5, 300), inputs.serve_stream(5, 300)
    assert one == two and one != inputs.serve_stream(6, 300)
    seen = set()
    for req in one:
        if req["op"] == "submit":
            seen.add(req["job"])
        elif req["op"] in ("start", "cancel"):
            assert req["job"] in seen
