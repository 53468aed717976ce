"""Correctness checks, each built from an independent computation or from a
property the method must have — never from a copy of earlier output.

Every check takes plain data (arrays, dicts, counts) and returns a list of
failure messages, empty when the output is right, so the tests in
``perfbench/tests`` can feed each one a perturbed output and see it fail.
Nothing here imports ``repro``.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Any, Dict, Iterable, List, Mapping, Sequence

import numpy as np

QUANTILE = 0.95
CONFIDENCE = 0.95
TRAINING_FRACTION = 0.10


def wilson_high(successes: int, trials: int, confidence: float = CONFIDENCE) -> float:
    """Upper end of the Wilson score interval for successes/trials."""
    if trials <= 0:
        raise ValueError("wilson_high needs at least one trial")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return min(1.0, center + half)


def coverage_holds(successes: int, trials: int) -> bool:
    """The (0.95, 0.95) claim: the Wilson interval does not lie below 0.95."""
    return trials > 0 and wilson_high(successes, trials) >= QUANTILE


def n_training(n: int) -> int:
    return math.ceil(TRAINING_FRACTION * n)


# --------------------------------------------------------------------------
# replay-sparse
# --------------------------------------------------------------------------


def max_observed_quotes(submits: np.ndarray, waits: np.ndarray, epoch: float) -> np.ndarray:
    """Max-observed's quote for every scored job, recomputed in numpy.

    The quote a job sees is the largest wait among jobs that had started
    by the last refit before its submit: its epoch boundary, or the end of
    training when that falls later in the same epoch (training ends with a
    refit).
    """
    n = len(submits)
    n_train = n_training(n)
    t0 = submits[0]
    boundary = t0 + epoch * np.floor((submits - t0) / epoch)
    refit_at = np.maximum(boundary[n_train:], submits[n_train])
    starts = submits + waits
    order = np.argsort(starts, kind="stable")
    running_max = np.maximum.accumulate(waits[order])
    k = np.searchsorted(starts[order], refit_at, side="right")
    return running_max[k - 1]


def check_max_observed(submits: np.ndarray, waits: np.ndarray, epoch: float,
                       n_correct: int, median_ratio: float) -> List[str]:
    quotes = max_observed_quotes(submits, waits, epoch)
    scored = waits[n_training(len(submits)):]
    hits = int(np.count_nonzero(scored <= quotes))
    ratio = float(np.median(scored / quotes))
    errors = []
    if hits != n_correct:
        errors.append(f"max-observed hits {n_correct} != recomputed {hits}")
    if ratio != median_ratio:
        errors.append(f"max-observed median ratio {median_ratio!r} != recomputed {ratio!r}")
    return errors


def check_quotes_are_started_waits(submits: np.ndarray, waits: np.ndarray,
                                   quote_submits: Sequence[float],
                                   quotes: Sequence[float]) -> List[str]:
    """Every BMBP quote is the wait of a job that had started by the time
    the quote was given (an order statistic of visible history)."""
    starts = submits + waits
    order = np.argsort(starts, kind="stable")
    started_at = starts[order]
    first_start = {}
    for pos, w in zip(started_at, waits[order]):
        first_start.setdefault(float(w), float(pos))
    errors = []
    for t, q in zip(quote_submits, quotes):
        seen = first_start.get(float(q))
        if seen is None or seen > t:
            errors.append(f"quote {q!r} at {t} is not a wait started by then")
            if len(errors) >= 5:
                break
    return errors


def check_bank(n_jobs: int, evaluated: Mapping[str, int], bmbp_correct: int) -> List[str]:
    """Each method scores exactly the post-training jobs; BMBP covers."""
    want = n_jobs - n_training(n_jobs)
    errors = [f"{name} evaluated {got} jobs, expected {want}"
              for name, got in sorted(evaluated.items()) if got != want]
    if not coverage_holds(bmbp_correct, evaluated.get("bmbp", 0)):
        errors.append(f"bmbp coverage {bmbp_correct}/{evaluated.get('bmbp', 0)} "
                      "lies below 0.95")
    return errors


# --------------------------------------------------------------------------
# corpus-dense
# --------------------------------------------------------------------------


def check_ingest_accounting(records: int, rows_read: int, kept: int,
                            drops: Mapping[str, int], store_rows: int,
                            store_queues: Mapping[str, int]) -> List[str]:
    """Every record of the log is read once and either kept or dropped, and
    the store holds exactly the kept rows.  ``records`` is counted from the
    file itself, not taken from the fixture generator."""
    errors = []
    if rows_read != records:
        errors.append(f"ingest read {rows_read} records, the log holds {records}")
    if kept + sum(drops.values()) != rows_read:
        errors.append(f"ingest kept {kept} and dropped {sum(drops.values())} "
                      f"of {rows_read} records read")
    if store_rows != kept:
        errors.append(f"store holds {store_rows} rows, ingest kept {kept}")
    if sum(store_queues.values()) != store_rows:
        errors.append(f"queues hold {sum(store_queues.values())} rows, store {store_rows}")
    return errors


def check_fixture_ledger(summary_queues: Mapping[str, int], summary_jobs: int,
                         store_queues: Mapping[str, int], store_rows: int,
                         drops: Mapping[str, int],
                         expected_drops: Mapping[str, int]) -> List[str]:
    """Ingested rows per queue and in total, and the drop ledger, against
    what the fixture generator says it wrote."""
    errors = []
    if store_rows != summary_jobs:
        errors.append(f"store holds {store_rows} rows, fixture wrote {summary_jobs} valid")
    for name in sorted(set(summary_queues) | set(store_queues)):
        got, want = store_queues.get(name, 0), summary_queues.get(name, 0)
        if got != want:
            errors.append(f"queue {name}: {got} rows ingested, fixture wrote {want}")
    if dict(drops) != dict(expected_drops):
        errors.append(f"drop ledger {dict(sorted(drops.items()))} != "
                      f"expected {dict(sorted(expected_drops.items()))}")
    return errors


def check_coverage_rows(queues: Mapping[str, Any]) -> List[str]:
    """Every replayed queue's BMBP row passes (0.95, 0.95), recomputed from
    its own counts."""
    errors = []
    replayed = 0
    for name, row in sorted(queues.items()):
        if row.get("skipped"):
            continue
        replayed += 1
        cov = row.get("coverage") or {}
        evaluated, correct = cov.get("evaluated", 0), cov.get("correct", 0)
        if not coverage_holds(correct, evaluated):
            errors.append(f"queue {name}: coverage {correct}/{evaluated} lies below 0.95")
        elif cov.get("passed") is not True:
            errors.append(f"queue {name}: report says passed={cov.get('passed')!r}")
    if replayed == 0:
        errors.append("no queue was replayed")
    return errors


def strip_volatile(report: Mapping[str, Any]) -> Dict[str, Any]:
    """The parts of a store replay report that must not depend on timing
    or on where results came from."""
    return {k: report.get(k) for k in
            ("site", "rows", "jobs_replayed", "methods", "queues", "coverage_pass")}


def check_cached_identity(cold: Mapping[str, Any], cached: Mapping[str, Any]) -> List[str]:
    errors = []
    if strip_volatile(cold) != strip_volatile(cached):
        errors.append("cached re-replay differs from the cold replay")
    cache = cached.get("provenance", {}).get("cache", {})
    units = len(cached.get("provenance", {}).get("units", []))
    if cache.get("misses") != 0 or cache.get("hits") != units:
        errors.append(f"cached re-replay: hits={cache.get('hits')} "
                      f"misses={cache.get('misses')} over {units} units")
    return errors


# --------------------------------------------------------------------------
# serve-mixed
# --------------------------------------------------------------------------


def started_waits(stream: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[float, int]]:
    """queue -> {wait: stream index of the first start with that wait}, the
    waits a daemon derives from ``stream`` (start ``now`` minus submit
    ``now``)."""
    submitted: Dict[str, Mapping[str, Any]] = {}
    out: Dict[str, Dict[float, int]] = {}
    for index, req in enumerate(stream):
        if req["op"] == "submit":
            submitted[req["job"]] = req
        elif req["op"] == "start":
            sub = submitted[req["job"]]
            out.setdefault(sub["queue"], {}).setdefault(req["now"] - sub["now"], index)
    return out


def check_served_values(values: Iterable[tuple],
                        started: Mapping[str, Mapping[float, int]]) -> List[str]:
    """Each served bound ``(queue, value, horizon)`` is the wait of a job of
    that queue whose start is among the first ``horizon`` requests of the
    stream: the requests the daemon could have seen when it answered."""
    errors = []
    for queue, value, horizon in values:
        index = started.get(queue, {}).get(value)
        if index is None:
            errors.append(f"bound {value!r} on queue {queue} is not a wait of that queue")
        elif index >= horizon:
            errors.append(f"bound {value!r} on queue {queue} is the wait of request "
                          f"{index}, not started within the first {horizon}")
        if len(errors) >= 5:
            break
    return errors


def check_quote_coverage(quoted: Sequence[tuple]) -> List[str]:
    """``quoted`` holds ``(bound, wait)`` for started jobs that got a bound."""
    hits = sum(1 for bound, wait in quoted if wait <= bound)
    if not coverage_holds(hits, len(quoted)):
        return [f"quote coverage {hits}/{len(quoted)} lies below 0.95"]
    return []
