"""Cumulative distribution helper for join-latency plots (paper Fig 5)."""

from __future__ import annotations

from typing import List, Sequence


def cdf_points(values: Sequence[float]) -> List[List[float]]:
    """Empirical CDF as ``[value, cumulative fraction]`` points.

    Points are plain lists (not tuples) so results embedding a CDF survive a
    JSON round-trip unchanged (see ``repro.experiments.resultio``).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return []
    return [[v, (i + 1) / n] for i, v in enumerate(ordered)]

