"""Ground-truth oracle for dependability metrics.

The simulator — unlike a deployment — knows exactly which nodes are active
at any instant, so it can decide whether a delivery was consistent: a lookup
is correctly delivered iff the delivering node's id is the numerically
closest *active* nodeId to the key at delivery time (paper §5.2 measures the
fraction of deliveries violating this).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Dict, List, Optional

from repro.pastry.nodeid import root_among


class Oracle:
    """Tracks alive and active overlay nodes."""

    def __init__(self) -> None:
        self._active_ids: List[int] = []  # sorted
        self._by_id: Dict[int, object] = {}
        self._alive: Dict[int, object] = {}  # includes joining nodes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def node_alive(self, node) -> None:
        self._alive[node.id] = node

    def node_activated(self, node) -> None:
        if node.id in self._by_id:
            return
        self._by_id[node.id] = node
        insort(self._active_ids, node.id)

    def node_crashed(self, node) -> None:
        self._alive.pop(node.id, None)
        if self._by_id.pop(node.id, None) is not None:
            idx = bisect_left(self._active_ids, node.id)
            if idx < len(self._active_ids) and self._active_ids[idx] == node.id:
                del self._active_ids[idx]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active_ids)

    @property
    def alive_count(self) -> int:
        return len(self._alive)

    def active_nodes(self) -> List[object]:
        return list(self._by_id.values())

    def active_ids(self) -> List[int]:
        """Sorted ids of all active nodes (a copy)."""
        return list(self._active_ids)

    def alive_ids(self) -> List[int]:
        """Ids of all alive nodes, including ones still joining."""
        return list(self._alive)

    def get_active(self, node_id: int):
        return self._by_id.get(node_id)

    def addresses(self) -> Dict[int, int]:
        """id -> address of every alive node, including ones still joining."""
        return {node_id: node.addr for node_id, node in self._alive.items()}

    def root_of(self, key: int) -> Optional[int]:
        """The nodeId that should receive a lookup for ``key`` right now."""
        ids = self._active_ids
        return root_among(ids, key) if ids else None

    def is_correct_root(self, node_id: int, key: int) -> bool:
        return self.root_of(key) == node_id

    def random_active(self, rng: random.Random):
        if not self._active_ids:
            return None
        return self._by_id[rng.choice(self._active_ids)]
