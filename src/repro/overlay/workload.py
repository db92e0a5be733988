"""Poisson lookup workload (paper §5.1 base configuration).

Each active node generates lookup messages according to a Poisson process
(default 0.01 lookups per second) with destination keys chosen uniformly at
random from the identifier space.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.pastry.nodeid import ID_SPACE
from repro.sim.engine import Simulator


class LookupWorkload:
    """Drives per-node Poisson lookup generation."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        rate: float,
        on_issue: Optional[Callable[[object], None]] = None,
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self.sim = sim
        self.rng = rng
        self.rate = rate
        self.on_issue = on_issue
        self.enabled = True
        self.issued = 0

    def start_node(self, node) -> None:
        if self.rate > 0:
            self._schedule(node)

    def _schedule(self, node) -> None:
        self.sim.schedule(self.rng.expovariate(self.rate), self._fire, node)

    def _fire(self, node) -> None:
        if node.crashed:
            return
        if self.enabled and node.active:
            msg = node.make_lookup(self.rng.getrandbits(128) % ID_SPACE)
            self.issued += 1
            if self.on_issue is not None:
                # Register before routing: the node may be the key's root
                # and deliver synchronously inside route_lookup.
                self.on_issue(msg)
            node.route_lookup(msg)
        self._schedule(node)
