"""In-memory spans recorded around the benchmark's calls into atomtrace.

A span is (name, start, end, parent, request id).  Spans are appended to
flat arrays while the benchmark runs and only summarised or written out
after it ends.  One Tracer belongs to one thread: the parent of a span is
whatever span that thread has open when it starts.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import defaultdict
from typing import Callable

NO_PARENT = -1
NO_REQUEST = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        self._open: list[int] = [NO_PARENT]
        self.current_request = NO_REQUEST

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1])
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn with a span named name around every call."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def __len__(self) -> int:
        return len(self.start)


def self_times(tracers: list[Tracer]) -> dict[str, list[float]]:
    """Per span name, each span's duration minus the time its children cover.

    Children of one span never overlap, because a tracer records one
    thread, so subtracting their summed durations is exact.
    """
    out: dict[str, list[float]] = defaultdict(list)
    for tr in tracers:
        n = len(tr)
        covered = [0.0] * n
        for i in range(n):
            p = tr.parent[i]
            if p != NO_PARENT:
                covered[p] += tr.end[i] - tr.start[i]
        for i in range(n):
            out[tr.names[tr.name[i]]].append(tr.end[i] - tr.start[i] - covered[i])
    return out


def per_request(selfs: dict[str, list[float]], name: str, requests: int) -> float:
    """Mean self time of a layer per request, in microseconds."""
    return sum(selfs.get(name, ())) / max(1, requests) * 1e6


def median_s(selfs: dict[str, list[float]], name: str) -> float:
    return statistics.median(selfs[name])


def dump(tracers: list[Tracer], max_request: int) -> dict:
    """Every span outside requests, plus the spans of requests below max_request.

    A run records hundreds of thousands of query spans; the sample keeps
    the file small while every set-up and update span is kept.
    """
    t0 = min((tr.start[0] for tr in tracers if len(tr)), default=0.0)
    spans = []
    for thread, tr in enumerate(tracers):
        for i in range(len(tr)):
            rid = tr.request[i]
            if rid != NO_REQUEST and rid >= max_request:
                continue
            spans.append(
                {
                    "thread": thread,
                    "id": i,
                    "name": tr.names[tr.name[i]],
                    "start_us": round((tr.start[i] - t0) * 1e6, 1),
                    "end_us": round((tr.end[i] - t0) * 1e6, 1),
                    "parent": tr.parent[i],
                    "request": rid,
                }
            )
    return {"spans_recorded": sum(len(tr) for tr in tracers), "spans": spans}
