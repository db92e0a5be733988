"""Topology interface shared by all network models.

A topology exposes *attachment points* for end nodes.  The transport asks the
topology for the one-way delay between two attachment points, and the overlay
(for proximity neighbour selection) asks for the *proximity metric* between
them — round-trip delay for the RTT-based topologies, IP hop count for the
Mercator-like topology, exactly as in the paper.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from array import array
from collections import OrderedDict
from typing import TYPE_CHECKING, List

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

#: bound on cached per-router delay rows (``_entry``): 8 B per router,
#: or ~0.7 kB for GATech's, whichever map size.
MAX_CACHED_DIST_ROWS = 512
#: one-way delay of the LAN link each end node attaches through (paper §5.1)
LAN_DELAY = 0.001


def dijkstra(graph, **kwargs):
    """scipy's ``csgraph.dijkstra``, imported on the first call, so that
    importing a topology module does not load scipy.  ``_router_distances``
    calls it by this global name, and subclasses as ``base.dijkstra``, so a
    profiler can rebind it."""
    from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

    return scipy_dijkstra(graph, **kwargs)


class Topology(ABC):
    """Abstract base for network topologies."""

    #: human-readable topology name used in reports
    name: str = "topology"

    @abstractmethod
    def attach(self, rng: random.Random) -> int:
        """Create an attachment point for one end node; return its id."""

    @abstractmethod
    def delay(self, a: int, b: int) -> float:
        """One-way network delay in seconds between attachment points."""

    def proximity(self, a: int, b: int) -> float:
        """Proximity metric used by PNS (default: round-trip delay)."""
        return 2.0 * self.delay(a, b)


class RouterGraphTopology(Topology):
    """Topology backed by a weighted router graph.

    End nodes attach to routers through a :data:`LAN_DELAY` link.
    Router-to-router delays are computed one source row at a time on demand
    (``_row``; a map may override it and ``_entry``, what the cache keeps),
    only for routers that host end nodes, and the cache is *bounded*: past
    :data:`MAX_CACHED_DIST_ROWS` the entry computed longest ago is evicted
    (FIFO; a hit does not refresh it).
    """

    def __init__(self) -> None:
        self._lan_round = 2.0 * LAN_DELAY
        self._graph: csr_matrix = None  # set by subclass via _set_graph
        self._n_routers = 0
        #: router id -> ``_entry``, FIFO-bounded at MAX_CACHED_DIST_ROWS.  Indexing
        #: an ``array('d')`` row yields a python float; a float64 ndarray would
        #: allocate a numpy scalar per event (``test_delay_is_a_python_float``).
        self._dist_cache: OrderedDict = OrderedDict()
        #: attachment id -> router id
        self._attach_router: List[int] = []

    # ------------------------------------------------------------------
    def _set_graph(self, n_routers: int, rows, cols, weights) -> None:
        """Install the (symmetric) router graph from edge lists."""
        from scipy.sparse import csr_matrix

        data = np.asarray(weights, dtype=np.float64)
        graph = csr_matrix(
            (np.concatenate([data, data]),
             (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
            shape=(n_routers, n_routers),
        )
        self._graph = graph
        self._n_routers = n_routers

    @property
    def n_routers(self) -> int:
        return self._n_routers

    # ------------------------------------------------------------------
    def _pick_router(self, rng: random.Random) -> int:
        """Choose the router an end node attaches to (uniform by default)."""
        return rng.randrange(self._n_routers)

    def attach(self, rng: random.Random) -> int:
        router = self._pick_router(rng)
        attachment = len(self._attach_router)
        self._attach_router.append(router)
        return attachment

    def router_of(self, attachment: int) -> int:
        return self._attach_router[attachment]

    @property
    def attachment_routers(self) -> np.ndarray:
        """The attachment→router map as a numpy array (a fresh copy)."""
        return np.array(self._attach_router, dtype=np.int64)

    def _row(self, router: int) -> np.ndarray:
        """The float64 delay row from ``router``: one search of the whole map.
        directed=True: _set_graph stores both directions of every link, so
        the transpose scipy builds per call for an undirected search finds
        nothing new."""
        return dijkstra(self._graph, indices=router, directed=True)

    def _entry(self, router: int):
        """The row as ``array('d')``: a bytes copy keeps the exact floats."""
        return array("d", self._row(router).tobytes())

    def _router_distances(self, router: int):
        cache = self._dist_cache
        row = cache.get(router)
        if row is None:
            row = self._entry(router)
            if len(cache) >= MAX_CACHED_DIST_ROWS:
                # FIFO eviction: deterministic (insertion-ordered) and
                # cheap; router access patterns are stable enough that
                # recency tracking buys nothing measurable.
                cache.popitem(last=False)
            cache[router] = row
        return row

    def router_delay(self, r1: int, r2: int) -> float:
        if r1 == r2:
            return 0.0
        return self._router_distances(r1)[r2]

    def delay(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        attach = self._attach_router
        r1 = attach[a]
        r2 = attach[b]
        # Two end nodes on the same router LAN still cross the LAN twice.
        if r1 == r2:
            return self._lan_round
        row = self._dist_cache.get(r1)
        if row is None:
            row = self._router_distances(r1)
        return row[r2] + self._lan_round
