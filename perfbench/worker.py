"""Child-interpreter entry point: ``python3 perfbench/worker.py '<task json>'``.

Prints ``READY {}`` once set up and ``RESULT <json>`` at the end; see
:func:`common.run_workers`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _ready() -> None:
    print("READY {}", flush=True)


def main() -> int:
    task = json.loads(sys.argv[1])
    if task["workload"] == "replay-sparse":
        import replay_sparse as module
    elif task["workload"] == "corpus-dense":
        import corpus_dense as module
    elif task["workload"] == "serve-layers":
        import serve_mixed as module
    else:
        raise SystemExit(f"unknown worker workload {task['workload']!r}")
    result = module.worker(task, _ready)
    print("RESULT " + json.dumps(result, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
