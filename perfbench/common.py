"""Shared plumbing for the benchmark: paths, run envelope, statistics,
fresh-process workers and the result line.

Nothing here imports ``repro``: the orchestrating process stays light, and
every figure that involves the program comes from a child interpreter whose
start-up is itself measured.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

#: How many fresh interpreters a batch workload splits its run over; each
#: one's set-up is one ``setup_s`` sample and the run reports their median.
SETUP_SAMPLES = 3

#: Single-threaded numeric libraries, so a "one process" workload really is
#: one core and the 2-worker workload is two.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


#: Workload metrics a run reports in its report line, beside the
#: end-to-end metrics every workload shares: name -> (unit, better, bound).
#: The steadiness and compare commands treat them like the shared ones; a
#: bound of None marks a figure too unsteady on a shared 2-core machine to
#: judge a change by (reported, never gated).
REPORT_METRICS = {
    "corpus-dense": {
        "ingest_rows_per_s": ("1/s", "higher", 0.25),
    },
    "serve-mixed": {
        "events_per_s": ("1/s", "higher", 0.25),
        "read_p50_ms": ("ms", "lower", None),
        "read_p99_ms": ("ms", "lower", 0.25),
        "write_p50_ms": ("ms", "lower", None),
        "write_p99_ms": ("ms", "lower", 0.25),
        "shutdown_s": ("s", "lower", 0.10),
    },
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, worker failure)."""


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources under {SRC}: run from a checkout of the repo"
        )


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout in every process
    env["BMBP_CACHE_DIR"] = str(workdir / "cache")
    env.pop("BMBP_JOBS", None)
    env.pop("BMBP_CACHE", None)
    env.pop("BMBP_REPLAY_ENGINE", None)
    return env


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced run leaves its spans (kept after the run)."""
    path = WORK_ROOT / "spans" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def make_workdir(workload: str) -> Path:
    workdir = WORK_ROOT / f"{workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return workdir


def compile_sources() -> None:
    """Byte-compile the program once, so no timed import pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )


# --------------------------------------------------------------------------
# Run envelope.
# --------------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    """The checkout's commit, when it is a git work tree (None otherwise)."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def envelope(seed: int) -> Dict[str, Any]:
    """Where and on what a run happened."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# Statistics.
# --------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return [v, v, v]
    return [float(q) for q in statistics.quantiles(values, n=4)]


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q`` percentile, or None without ten samples
    beyond it."""
    if len(values) * (1.0 - q) < 10.0:
        return None
    return float(sorted(values)[max(1, math.ceil(q * len(values))) - 1])


# --------------------------------------------------------------------------
# Fresh-process workers.
# --------------------------------------------------------------------------


def _expect(proc: subprocess.Popen, tag: str) -> Dict[str, Any]:
    for line in proc.stdout:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise BenchError(f"worker exited before {tag} (code {proc.wait()})")


def run_workers(workdir: Path, tasks: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Run each task in a fresh ``perfbench/worker.py`` interpreter, one
    after another.

    The child prints ``READY {}`` once it is set up and ``RESULT <json>``
    when it has measured; the wall time from spawn to READY, seen from
    here, is the result's ``setup_s``.
    """
    results = []
    for task in tasks:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(task)],
            stdout=subprocess.PIPE, env=child_env(workdir), text=True, cwd=str(ROOT),
        )
        try:
            _expect(proc, "READY")
            setup_s = time.perf_counter() - started
            result = _expect(proc, "RESULT")
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"worker failed with exit code {proc.returncode}")
        result["setup_s"] = setup_s
        results.append(result)
    return results


# --------------------------------------------------------------------------
# Output.
# --------------------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(report: Dict[str, Any], correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, Any]]) -> None:
    """Print the detailed report line, then the result line (always last)."""
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    sys.stdout.flush()
