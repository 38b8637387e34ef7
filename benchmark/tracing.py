"""In-memory spans for the traced benchmark run.

A span records a name of the form ``<layer>.<operation>``, a start, an end
(``time.perf_counter`` seconds of the process that recorded it) and the id
of the span that was open when it started. All spans of one tracer share a
run id. Nothing is written while the run is measured; the caller serialises
``Tracer.spans`` once the benchmark ends.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        """fn with every call recorded as one span."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def subtree(self, root: dict) -> list[dict]:
        """root and every span opened while it was open, in start order."""
        inside = {root["id"]}
        out = [root]
        for s in self.spans[root["id"] + 1 :]:
            if s["parent"] in inside:
                inside.add(s["id"])
                out.append(s)
        return out


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def durations(spans: list[dict], name: str) -> list[float]:
    return [duration(s) for s in spans if s["name"] == name]


def total(spans: list[dict], name: str) -> float:
    return sum(durations(spans, name))


def self_time_by_layer(spans: list[dict]) -> dict[str, float]:
    """Per layer, the summed span durations minus the time their direct
    children cover. Spans of one thread nest, so children never overlap."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + duration(s) - child_time.get(s["id"], 0.0)
    return out
