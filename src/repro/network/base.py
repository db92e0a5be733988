"""Topology interface shared by all network models.

A topology exposes *attachment points* for end nodes, and the transport asks
it for the one-way delay between two of them.  The overlay never asks it for
anything: proximity neighbour selection measures by probe round trips over
the transport (``pastry/pns.py``).  ``proximity`` is the ground truth those
measurements estimate, which the PNS tests compare against: round-trip delay,
which on the Mercator-like map is proportional to the IP hop count, as in the
paper.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from array import array
from collections import OrderedDict
from heapq import heapify, heappop, heappush
from math import inf
from typing import List, NamedTuple, Sequence

import numpy as np

#: bound on cached per-router delay rows (``_entry``): 8 B per router,
#: or ~0.7 kB for GATech's, whichever map size.
MAX_CACHED_DIST_ROWS = 512
#: one-way delay of the LAN link each end node attaches through (paper §5.1)
LAN_DELAY = 0.001


class Csr(NamedTuple):
    """A router graph in compressed sparse rows: router ``r``'s links go to
    ``indices[indptr[r]:indptr[r + 1]]``, with delays ``data`` at the same
    places.  numpy arrays laid out as scipy's ``csr_matrix`` lays them out,
    or python lists for a graph searched at every row miss (a GATech stub)."""

    indptr: Sequence
    indices: Sequence
    data: Sequence
    shape: tuple


def dijkstra(graph, indices=None, return_predecessors=False, min_only=False, **kwargs):
    """scipy's ``csgraph.dijkstra`` call and results, but for the sources
    scipy adds to a ``min_only`` search's.  A :class:`Csr` graph is searched
    in Python (``_search``), so a CorpNet or GATech run loads no scipy.
    Only a scipy matrix, Mercator's AS graph, goes to scipy, whose heap
    order breaks the ties between equal-length AS paths (DESIGN §10).
    ``_row`` calls this by its global name, and every other search as
    ``base.dijkstra``, so a profiler can rebind it."""
    if isinstance(graph, Csr):
        return _search(graph, indices, return_predecessors, min_only, **kwargs)
    from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

    return scipy_dijkstra(graph, indices=indices, return_predecessors=return_predecessors,
                          min_only=min_only, **kwargs)


def _search(graph: Csr, indices, return_predecessors: bool, min_only: bool):
    """scipy's directed search of a csr graph, for the three calls the maps
    make: one source's labels (``indices`` a router); with ``min_only``, one
    search from all of ``indices`` at once; with neither, every router's
    row.  With weights > 0 each final label is the minimum over in-links of
    ``fl(lab[u] + w)`` whatever the pop order, so the labels are scipy's bit
    for bit.  So are the predecessors, unless two routers tie on a label
    and give a third the same sum: then scipy's heap order picks one, and
    this search the lower id.  -9999 marks no predecessor, as in scipy."""
    lists = [part.tolist() if isinstance(part, np.ndarray) else part for part in graph[:3]]
    if not return_predecessors:
        return np.array(_heap_search(*lists, [indices])[0])
    if min_only:
        labels, pred = _heap_search(*lists, np.asarray(indices).tolist())
        return np.array(labels), np.array(pred, dtype=np.int32)
    rows = [_heap_search(*lists, [source]) for source in range(graph.shape[0])]
    return (np.array([labels for labels, _ in rows]),
            np.array([pred for _, pred in rows], dtype=np.int32))


def _heap_search(starts: list, heads: list, weights: list, sources: list) -> tuple:
    """Labels from ``sources`` over the csr lists, ``inf`` where unreachable,
    and each router's predecessor: the router whose pop last lowered its
    label, -9999 at a source or where unreachable."""
    labels, pred = [inf] * (len(starts) - 1), [-9999] * (len(starts) - 1)
    queue = [(0.0, source) for source in sources]
    heapify(queue)
    for source in sources:
        labels[source] = 0.0
    while queue:
        label, tail = heappop(queue)
        if label > labels[tail]:
            continue  # a stale entry: the router was reached for less since
        for link in range(starts[tail], starts[tail + 1]):
            via, head = label + weights[link], heads[link]
            if via < labels[head]:
                labels[head], pred[head] = via, tail
                heappush(queue, (via, head))
    return labels, pred


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
        self._graph: Csr = None  # set by subclass via _set_graph
        self._n_routers = 0
        #: router id -> ``_entry``, FIFO-bounded at MAX_CACHED_DIST_ROWS.  Indexing
        #: an ``array('d')`` row yields a python float; a float64 ndarray would
        #: allocate a numpy scalar per event (``test_delay_is_a_python_float``).
        self._dist_cache: OrderedDict = OrderedDict()
        #: attachment id -> router id
        self._attach_router: List[int] = []

    # ------------------------------------------------------------------
    def _set_graph(self, n_routers: int, rows, cols, weights) -> None:
        """Install the (symmetric) router graph from edge lists, stored as
        scipy's ``csr_matrix`` stores it: both directions of every link, a
        row's heads ascending, and a link added twice one entry with the sum
        of both delays (ROADMAP 20), summed in the order the links came."""
        data = np.asarray(weights, dtype=np.float64)
        tails = np.concatenate([rows, cols]).astype(np.int32)
        heads = np.concatenate([cols, rows]).astype(np.int32)
        order = np.lexsort((heads, tails))  # stable: copies keep their order
        tails, heads, data = tails[order], heads[order], np.concatenate([data, data])[order]
        first = np.flatnonzero(np.diff(tails.astype(np.int64) * n_routers + heads, prepend=-1))
        summed, copies = data[first], np.diff(first, append=len(data))
        for nth in range(1, copies.max(initial=1)):
            more = copies > nth
            summed[more] += data[first[more] + nth]
        indptr = np.searchsorted(tails[first], np.arange(n_routers + 1)).astype(np.int32)
        self._graph = Csr(indptr, heads[first], summed, (n_routers, n_routers))
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

    @property
    def attachment_routers(self) -> np.ndarray:
        """The attachment→router map as a numpy array (a fresh copy)."""
        return np.array(self._attach_router, dtype=np.int64)

    def _row(self, router: int) -> np.ndarray:
        """The float64 delay row from ``router``: one directed search of the
        whole map, exact because ``_set_graph`` stores both directions of
        every link."""
        return dijkstra(self._graph, indices=router)

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
