"""Throughput and update-latency-under-load measurements on a classification tree."""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import aptree
from .aptree import PublishedClassifier
from .bdd import Header, Predicate


def percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def classify_throughput(tree: aptree.APTree, headers: list[Header]) -> float:
    """Single-process queries per second over the given headers."""
    start = time.perf_counter()
    for h in headers:
        aptree.classify(tree, h)
    elapsed = time.perf_counter() - start
    return len(headers) / elapsed if elapsed > 0 else float("inf")


def parallel_throughput(
    tree: aptree.APTree, headers: list[Header], workers: int
) -> float:
    """Queries per second with forked worker processes.

    Forked processes rather than threads: the hot loop is pure Python, so
    the interpreter lock would serialize threads and hide real scaling.
    """
    if workers <= 1:
        return classify_throughput(tree, headers)
    chunks = [headers[i::workers] for i in range(workers)]
    start = time.perf_counter()
    pids = []
    for chunk in chunks:
        pid = os.fork()
        if pid == 0:
            for h in chunk:
                aptree.classify(tree, h)
            os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    elapsed = time.perf_counter() - start
    return len(headers) / elapsed if elapsed > 0 else float("inf")


@dataclass
class UpdateRun:
    latencies_ms: list[float]
    query_errors: int
    queries_done: int

    def percentiles(self) -> dict[str, float]:
        s = sorted(self.latencies_ms)
        return {
            "p50": percentile(s, 0.50),
            "p95": percentile(s, 0.95),
            "p99": percentile(s, 0.99),
        }


def run_updates_under_load(
    classifier: PublishedClassifier,
    ops: Sequence[tuple[str, Predicate]],
    headers: list[Header],
    query_threads: int = 4,
    oracle: Optional[Callable] = None,
) -> UpdateRun:
    """Apply an update stream while query threads hammer the classifier.

    Each query grabs one published tree and, when an oracle is given,
    verifies the answer against that same version's atom partition, so a
    mid-stream swap can never be misread as an error.
    """
    stop = threading.Event()
    errors = [0] * query_threads
    done = [0] * query_threads

    def worker(i: int):
        n = len(headers)
        k = i
        while not stop.is_set():
            tree = classifier.tree
            h = headers[k % n]
            k += query_threads
            atom = aptree.classify(tree, h)
            if oracle is not None and atom != oracle(tree, h):
                errors[i] += 1
            done[i] += 1

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(query_threads)]
    for t in threads:
        t.start()
    latencies = []
    try:
        for op, pred in ops:
            start = time.perf_counter()
            if op == "add":
                classifier.add(pred)
            elif op == "remove":
                classifier.remove(pred)
            else:
                raise ValueError(f"unknown op {op!r}")
            latencies.append((time.perf_counter() - start) * 1000.0)
    finally:
        stop.set()
        for t in threads:
            t.join()
    return UpdateRun(latencies, sum(errors), sum(done))
