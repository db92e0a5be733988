"""Mercator-like hierarchical AS topology (proximity = IP hop count).

The paper's Mercator network is a measured router-level Internet map with
102,639 routers in 2,662 autonomous systems; routing is hierarchical (the
route follows the shortest AS-overlay path, and the shortest intra-AS path to
a router in the next AS).  Since the map itself is unavailable we generate a
synthetic equivalent preserving the two properties the paper's result depends
on: (a) the proximity metric is IP hop count, which discriminates far more
coarsely than RTT, and (b) routes are constrained by the AS hierarchy and so
are longer than flat shortest paths.  Both push RDP above the GATech value,
as in the paper (2.12 vs 1.80).

The AS overlay is grown with preferential attachment (Internet AS graphs are
power-law); each AS holds a small random connected router graph, and each AS
adjacency is realised by a gateway router pair.
"""

from __future__ import annotations

import random
from array import array
from collections import OrderedDict
from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from repro.network import base
from repro.network.base import Topology

#: bound on cached router-pair hop counts (ints; a few MB at the cap).
#: FIFO eviction keeps the hot working set without unbounded growth over
#: long runs with many distinct communicating pairs.
MAX_CACHED_HOP_PAIRS = 1 << 17
#: one-way delay per IP hop, for the transport (proximity is the hop count)
SECONDS_PER_HOP = 0.005


def _intra_hop_tables(sizes: List[int], n_links: List[int], ends: array) -> List[bytes]:
    """The hop-count table of each AS's connected router graph: one byte per
    entry, row-major (``table[i * size + j]``).

    AS ``a`` owns the next ``n_links[a]`` links; link ``k`` joins routers
    ``ends[2k]`` and ``ends[2k + 1]``, numbered within their AS.  The ASes
    of one size are searched together, breadth-first from every router at
    once: one stacked product with links-plus-identity per level.  Clipping
    ``reach`` to 0/1 each level keeps every sum a small integer, so float32
    is exact on any BLAS.
    """
    size_of = np.array(sizes)
    edge_size = np.repeat(size_of, n_links)
    order = np.argsort(edge_size)  # links grouped by AS size
    edge_as = np.repeat(np.arange(len(sizes)), n_links)[order]
    ends = np.frombuffer(ends, np.intc).reshape(-1, 2)[order]
    group_sizes = np.unique(size_of)
    bounds = np.searchsorted(edge_size[order], group_sizes, "right")
    tables: List[bytes] = [b""] * len(sizes)
    lo = 0
    for size, hi in zip(group_sizes.tolist(), bounds.tolist()):
        members = np.flatnonzero(size_of == size)
        g = np.searchsorted(members, edge_as[lo:hi])  # index among its size
        i, j = ends[lo:hi, 0], ends[lo:hi, 1]
        lo = hi
        eye = np.eye(size, dtype=np.float32)
        step = np.zeros((len(members), size, size), np.float32)
        step[g, i, j] = step[g, j, i] = 1
        step += eye
        reach = np.repeat(eye[None], len(members), axis=0)
        seen = np.zeros(step.shape, np.float32)  # levels a pair was reached at
        level = 0
        while not reach.all():  # a disconnected graph ends at the byte limit
            level += 1
            if level > 255:
                raise ValueError("intra-AS hop count does not fit one byte")
            seen += reach
            reach = np.minimum(reach @ step, 1)
        # a pair first reached at level h was unreached at levels 0 .. h-1
        hops = (level - seen).astype(np.uint8)
        for as_id, table in zip(members.tolist(), hops):
            tables[as_id] = table.tobytes()
    return tables


class HierarchicalASTopology(Topology):
    name = "Mercator"

    def __init__(
        self,
        rng: random.Random,
        n_as: int = 64,
        routers_per_as: int = 8,
    ) -> None:
        self._rng = rng
        self._attach_router: List[int] = []
        self._hops_cache: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self._build(n_as, routers_per_as)

    # ------------------------------------------------------------------
    def _build(self, n_as: int, routers_per_as: int) -> None:
        # scipy is imported when a map is built, not with this module
        from scipy.sparse import csr_matrix

        rng = self._rng
        if n_as < 2:
            raise ValueError("need at least two ASes")

        # --- AS overlay: preferential attachment, m=2 ----------------
        as_edges: List[Tuple[int, int]] = [(0, 1)]
        degree = [1, 1]
        endpoints = [0, 1]  # degree-weighted sampling pool
        for new_as in range(2, n_as):
            targets = set()
            attempts = 0
            want = min(2, new_as)
            while len(targets) < want and attempts < 50:
                targets.add(rng.choice(endpoints))
                attempts += 1
            degree.append(0)
            # sorted: the iteration order of `targets` decides the edge list
            # and the degree-weighted pool, which every later rng draw
            # depends on — set order is not a language guarantee.
            for target in sorted(targets):
                as_edges.append((new_as, target))
                degree[new_as] += 1
                degree[target] += 1
                endpoints.extend([new_as, target])

        # AS-level predecessor rows, one per source AS, filled on first use
        # (`_as_path`): a run asks for a fraction of the sources.  Ties
        # between equal-length AS paths are broken by scipy's Dijkstra, so
        # every row comes from that one routine.
        r = [e[0] for e in as_edges] + [e[1] for e in as_edges]
        c = [e[1] for e in as_edges] + [e[0] for e in as_edges]
        self._as_graph = csr_matrix((np.ones(len(r)), (r, c)), shape=(n_as, n_as))
        self._as_pred: Dict[int, array] = {}

        # --- routers inside each AS: contiguous ranges ----------------
        self._router_as: List[int] = []
        self._as_start: List[int] = []
        self._as_size: List[int] = []
        for as_id in range(n_as):
            size = max(2, round(rng.gauss(routers_per_as, routers_per_as * 0.3)))
            self._as_start.append(len(self._router_as))
            self._as_size.append(size)
            self._router_as.extend([as_id] * size)

        # Intra-AS connected random graphs: a random tree plus extra links,
        # drawn AS by AS; the hop tables are searched afterwards, by size.
        n_links: List[int] = []
        ends = array("i")
        draw = rng.random
        for n in self._as_size:
            links = [(idx, rng.randrange(idx)) for idx in range(1, n)]
            extra_edge = 2.0 / n
            links += [(i, j) for i in range(n) for j in range(i + 1, n)
                      if draw() < extra_edge]
            n_links.append(len(links))
            ends.extend(chain.from_iterable(links))
        self._intra_hops = _intra_hop_tables(self._as_size, n_links, ends)

        # --- gateways: one router pair per AS adjacency ---------------
        # _gateway[(A, B)] = (local index of A's gateway toward B,
        #                     local index of B's gateway toward A)
        self._gateway: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for a, b in as_edges:
            ga = rng.randrange(self._as_size[a])
            gb = rng.randrange(self._as_size[b])
            self._gateway[(a, b)] = (ga, gb)
            self._gateway[(b, a)] = (gb, ga)

    # ------------------------------------------------------------------
    @property
    def n_routers(self) -> int:
        return len(self._router_as)

    def attach(self, rng: random.Random) -> int:
        self._attach_router.append(rng.randrange(self.n_routers))
        return len(self._attach_router) - 1

    def _as_path(self, src_as: int, dst_as: int) -> List[int]:
        row = self._as_pred.get(src_as)
        if row is None:
            _, pred = base.dijkstra(
                self._as_graph, indices=src_as, unweighted=True,
                return_predecessors=True, directed=False,
            )
            row = self._as_pred[src_as] = array("i", pred.tolist())
        path = [dst_as]
        while path[-1] != src_as:
            prev = row[path[-1]]
            if prev < 0:
                raise RuntimeError("disconnected AS graph")
            path.append(prev)
        path.reverse()
        return path

    def router_hops(self, r1: int, r2: int) -> int:
        """IP hop count along the hierarchical route between two routers."""
        if r1 == r2:
            return 0
        key = (r1, r2) if r1 < r2 else (r2, r1)
        cached = self._hops_cache.get(key)
        if cached is not None:
            return cached
        a_as, b_as = self._router_as[r1], self._router_as[r2]
        start, size, intra = self._as_start, self._as_size, self._intra_hops
        la, lb = r1 - start[a_as], r2 - start[b_as]
        if a_as == b_as:
            hops = intra[a_as][la * size[a_as] + lb]
        else:
            hops = 0
            current = la
            path = self._as_path(a_as, b_as)
            for here, nxt in zip(path, path[1:]):
                gw_out, gw_in = self._gateway[(here, nxt)]
                hops += intra[here][current * size[here] + gw_out] + 1
                current = gw_in
            hops += intra[b_as][current * size[b_as] + lb]
        if len(self._hops_cache) >= MAX_CACHED_HOP_PAIRS:
            self._hops_cache.popitem(last=False)
        self._hops_cache[key] = hops
        return hops

    def hops(self, a: int, b: int) -> int:
        if a == b:
            return 0
        # +2 for the two end-node access links.
        return self.router_hops(self._attach_router[a], self._attach_router[b]) + 2

    def delay(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        return self.hops(a, b) * SECONDS_PER_HOP

    def proximity(self, a: int, b: int) -> float:
        """The paper uses IP hop count as Mercator's proximity metric."""
        return float(self.hops(a, b))
