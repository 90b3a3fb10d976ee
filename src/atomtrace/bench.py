"""Percentiles of latency samples, for the CLI's update summary and perfbench."""

from __future__ import annotations

from typing import Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]
