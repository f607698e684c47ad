"""In-memory span recorder for the traced benchmark run.

A span covers one call from the benchmark into a photonlab module.  It
holds its name (``<layer>.<call>``), start and end (``perf_counter``
seconds from the tracer's creation), the index of its parent span, the
operation id it belongs to and, for loops timed as one span, the number of
calls it covers.  Spans stay in memory until the run ends and are then
written as JSON lines.  Measured runs use :class:`Off`, whose spans cost a
function call and record nothing.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, count: int | None = None):
        idx = len(self.spans)
        rec = {
            "id": idx,
            "name": name,
            "start": perf_counter() - self.t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        if count is not None:
            rec["count"] = count
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = perf_counter() - self.t0

    # -- queries ------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def per_call(self, name: str) -> float:
        """Median over spans of duration / count (a span timing a loop)."""
        return statistics.median(
            (s["end"] - s["start"]) / s.get("count", 1)
            for s in self.spans
            if s["name"] == name
        )

    def children(self, idx: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == idx]

    def self_times(self) -> dict[str, float]:
        """Self time summed per layer (the span name up to its first dot).

        A span's self time is its duration minus its children's durations.
        """
        child_sum = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_sum[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            own = s["end"] - s["start"] - child_sum[s["id"]]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class Off:
    """Stand-in for :class:`Tracer` in measured runs."""

    def __init__(self):
        self.op: int | None = None

    def span(self, name: str, count: int | None = None):
        return nullcontext()
