"""In-memory spans and call counters for the traced run.

A span is ``(id, parent, name, start, end)`` around one public call made
from the benchmark's own files; its layer is the first dotted part of the
name (``corpus.etl.ingest`` belongs to ``corpus``).  Hot per-job calls
(``observe_batch``, ``refit`` ...) would swamp a span list, so they are
counted instead: calls and summed seconds per name.

Nothing is written while a run measures; :meth:`Tracer.dump` writes the
spans out at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.counters: Dict[str, List[float]] = {}
        self._stack: List[int] = []
        self._depth = 0  # wrapped calls currently running

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, name, time.perf_counter(), float("nan")))
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            sid, par, nm, start, _ = self.spans[span_id]
            self.spans[span_id] = (sid, par, nm, start, time.perf_counter())

    def record(self, name: str, start: float, end: float) -> None:
        """A finished top-level span (for work that interleaves, like
        pipelined requests, where a ``with`` block cannot frame it)."""
        self.spans.append((len(self.spans), None, name, start, end))

    def wrap_method(self, obj: Any, attr: str, name: str) -> None:
        """Count every call of ``obj.attr`` (an instance attribute shadows
        the class method, so calls the object makes on itself count too).

        Time is charged to the outermost wrapped call only, so the per-name
        seconds of nested calls (``observe_batch`` -> ``observe``) add up
        to the time spent inside the object, without double counting.
        """
        inner = getattr(obj, attr)
        clock = time.perf_counter
        entry = self.counters.setdefault(name, [0, 0.0])
        tracer = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            entry[0] += 1
            if tracer._depth:
                return inner(*args, **kwargs)
            tracer._depth += 1
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                entry[1] += clock() - t0
                tracer._depth -= 1

        setattr(obj, attr, timed)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": [
                {"id": sid, "parent": parent, "name": name,
                 "start": start, "end": end}
                for sid, parent, name, start, end in self.spans
            ],
            "counters": {k: {"calls": v[0], "s": v[1]}
                         for k, v in sorted(self.counters.items())},
        }))
