"""The one analytic topology: every pair of end nodes the same delay apart.

Not part of the paper's evaluation: ``build_overlay`` and the live
comparison run protocols over it, where delay must be trivially
predictable.
"""

from __future__ import annotations

import random

from repro.network.base import Topology


class UniformDelayTopology(Topology):
    """Every pair of end nodes is separated by the same one-way delay."""

    name = "uniform"

    def __init__(self, delay: float = 0.05) -> None:
        self._delay = delay
        self._n = 0

    def attach(self, rng: random.Random) -> int:
        self._n += 1
        return self._n - 1

    def delay(self, a: int, b: int) -> float:
        return 0.0 if a == b else self._delay

