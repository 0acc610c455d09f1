"""In-memory span recorder for the benchmark's traced run.

A span is one call into one layer, recorded at the benchmark's own call
site: name, start, end, parent span and the id of the op (figure cell or
serve job) it belongs to.  Spans stay in memory and are written out once,
when the run ends.  A layer's self time is its spans' durations minus the
time their child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    """Collects spans from any number of threads (one parent stack each)."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[Dict]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        record = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def self_times(self) -> Dict[str, float]:
        """``span name -> summed self time`` (duration minus children)."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sorted(self.spans, key=lambda s: s["start"]), fh)
            fh.write("\n")


class NullRecorder:
    """Untraced runs: the same call sites, no recording."""

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        yield None
