"""A test map: end nodes placed uniformly on a 2-D plane, delay = scaled
distance.  PNS and discovery tests use it because its proximity structure
is smooth and fully known."""

import random
from typing import List, Tuple

from repro.network.base import Topology


class EuclideanTopology(Topology):
    name = "euclidean"

    def __init__(self, side: float = 1.0, delay_per_unit: float = 0.1) -> None:
        self.side = side
        self.delay_per_unit = delay_per_unit
        self._points: List[Tuple[float, float]] = []

    def attach(self, rng: random.Random) -> int:
        self._points.append((rng.uniform(0, self.side), rng.uniform(0, self.side)))
        return len(self._points) - 1

    def delay(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        (x1, y1), (x2, y2) = self._points[a], self._points[b]
        return self.delay_per_unit * ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5
