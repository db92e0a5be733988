"""GT-ITM-style transit-stub topology (the paper's "GATech" network).

The paper uses a 5050-router transit-stub graph from the Georgia Tech
topology generator: 10 transit domains averaging 5 routers each, with an
average of 10 stub domains per transit router and 10 routers per stub
domain.  We rebuild the same hierarchy: domains are placed in a unit square,
routers are placed around their domain's centre, and link delays are derived
from Euclidean distance (the GT-ITM convention).  Stub domains attach only to
their transit router, so policy routing (no transit through stubs) is
enforced structurally.

End nodes attach to randomly selected *stub* routers through a 1 ms LAN link,
as in the paper.

A delay row comes from that hierarchy (``_row``, DESIGN §10): a search of the
source's stub, a fold along cached trees, and a certificate that makes it
equal to scipy's search of the whole map bit for bit.
"""

from __future__ import annotations

import random
from array import array
from functools import reduce
from operator import add
from typing import Any, List, NamedTuple

import numpy as np

from repro.network import base
from repro.network.base import RouterGraphTopology

#: seconds of link delay per unit of distance in the unit square (GT-ITM)
DELAY_PER_UNIT = 0.080


def _levels(graph, children: np.ndarray, parents: np.ndarray) -> list:
    """The tree links ``parents[i] -> children[i]`` as ``(children, parents,
    weights)`` per depth, weights read off ``graph``: folding the levels in
    order labels each child from a labelled parent (depth 0: a root's)."""
    position = np.full(graph.shape[0], -1)
    position[children] = np.arange(len(children))
    depth = np.zeros(len(children), dtype=np.int64)
    up = position[parents]
    while (inner := up >= 0).any():
        depth[inner] += 1
        up[inner] = position[parents[up[inner]]]
    weights = np.asarray(graph[parents, children]).ravel()
    return [(children[at], parents[at], weights[at])
            for at in (depth == d for d in range(depth.max(initial=-1) + 1))]


class _Fold(NamedTuple):
    """What ``TransitStubTopology._row`` folds along, built at its first call."""

    stub_graph: Any  # the intra-stub links: one search per row
    core_ids: np.ndarray  # the transit routers
    core_trees: list  # per transit router, its tree's (child, parent, weight), parents first
    forest: list  # ``_levels`` of every stub's tree from its gateway
    gate: np.ndarray  # router -> its stub's gateway, -1 for a transit router
    tails: np.ndarray  # every directed link (tail, head, weight), for the certificate
    heads: np.ndarray
    weights: np.ndarray


class TransitStubTopology(RouterGraphTopology):
    name = "GATech"

    def __init__(
        self,
        rng: random.Random,
        n_transit_domains: int = 10,
        transit_routers_per_domain: int = 5,
        stub_domains_per_transit_router: int = 10,
        routers_per_stub: int = 10,
    ) -> None:
        super().__init__()
        self._rng = rng
        self._stub_routers: List[int] = []
        #: one (members, gateway, transit router) per stub domain
        self._stubs: List[tuple] = []
        self._fold: _Fold | None = None
        #: per router, by ``_prepare``: its stub's routers (``[r]`` if transit), its
        #: transit router's index in ``core_ids``, the weights down its forest path
        self._home = self._core_of = self._paths = None
        #: relax passes the certificate has run (0 on every map seen so far)
        self._relax_passes = 0
        self._build(
            n_transit_domains,
            transit_routers_per_domain,
            stub_domains_per_transit_router,
            routers_per_stub,
        )

    @classmethod
    def scaled(cls, rng: random.Random, scale: float = 0.2) -> "TransitStubTopology":
        """Smaller instance preserving the hierarchy (for fast experiments)."""
        return cls(
            rng,
            n_transit_domains=max(3, round(10 * min(1.0, scale * 2))),
            transit_routers_per_domain=max(2, round(5 * min(1.0, scale * 2))),
            stub_domains_per_transit_router=max(2, round(10 * scale)),
            routers_per_stub=max(2, round(10 * scale)),
        )

    # ------------------------------------------------------------------
    def _build(
        self,
        n_transit: int,
        per_transit: int,
        stubs_per_router: int,
        per_stub: int,
    ) -> None:
        rng = self._rng
        positions: List[tuple] = []
        rows: List[int] = []
        cols: List[int] = []
        weights: List[float] = []

        def add_router(x: float, y: float) -> int:
            positions.append((x, y))
            return len(positions) - 1

        def add_edge(a: int, b: int) -> None:
            (x1, y1), (x2, y2) = positions[a], positions[b]
            dist = ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5
            rows.append(a)
            cols.append(b)
            # Small floor keeps co-located routers from having zero delay.
            weights.append(DELAY_PER_UNIT * dist + 0.0005)

        def connect_clique_ish(members: List[int], extra_edge_prob: float) -> None:
            """Random connected graph: spanning chain + random chords."""
            for idx in range(1, len(members)):
                add_edge(members[idx], members[rng.randrange(idx)])
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    if rng.random() < extra_edge_prob:
                        add_edge(members[i], members[j])

        # Transit domains: centres spread over the unit square.
        transit_domains: List[List[int]] = []
        for _ in range(n_transit):
            cx, cy = rng.random(), rng.random()
            members = [
                add_router(cx + rng.gauss(0, 0.03), cy + rng.gauss(0, 0.03))
                for _ in range(max(1, round(rng.gauss(per_transit, per_transit * 0.2))))
            ]
            connect_clique_ish(members, 0.4)
            transit_domains.append(members)

        # Inter-domain links: spanning chain over domains plus random extras,
        # each realised as a link between random routers of the two domains.
        for idx in range(1, n_transit):
            other = rng.randrange(idx)
            add_edge(rng.choice(transit_domains[idx]), rng.choice(transit_domains[other]))
        for i in range(n_transit):
            for j in range(i + 1, n_transit):
                if rng.random() < 0.3:
                    add_edge(rng.choice(transit_domains[i]), rng.choice(transit_domains[j]))

        # Stub domains hang off transit routers.
        for domain in transit_domains:
            for transit_router in domain:
                tx, ty = positions[transit_router]
                n_stubs = max(1, round(rng.gauss(stubs_per_router, stubs_per_router * 0.2)))
                for _ in range(n_stubs):
                    sx, sy = tx + rng.gauss(0, 0.02), ty + rng.gauss(0, 0.02)
                    members = [
                        add_router(sx + rng.gauss(0, 0.005), sy + rng.gauss(0, 0.005))
                        for _ in range(max(1, round(rng.gauss(per_stub, per_stub * 0.2))))
                    ]
                    connect_clique_ish(members, 0.2)
                    gateway = rng.choice(members)
                    add_edge(gateway, transit_router)
                    self._stubs.append((members, gateway, transit_router))
                    self._stub_routers.extend(members)

        self._set_graph(len(positions), rows, cols, weights)

    def _pick_router(self, rng: random.Random) -> int:
        return rng.choice(self._stub_routers)

    # ------------------------------------------------------------------
    def _prepare(self) -> _Fold:
        """Two searches, once: each transit router's shortest-path tree over
        the transit core, and each stub's tree from its gateway.  Every weight
        is read off the installed graph, where a doubled link is one entry."""
        from scipy.sparse import csr_matrix

        graph, n = self._graph, self._n_routers
        coo = graph.tocoo()
        transit = np.ones(n, dtype=bool)
        transit[self._stub_routers] = False
        inner = ~transit[coo.row] & ~transit[coo.col]
        stub_graph = csr_matrix(
            (coo.data[inner], (coo.row[inner], coo.col[inner])), shape=(n, n))
        core_ids = np.flatnonzero(transit)
        core = graph[core_ids][:, core_ids]
        _, core_pred = base.dijkstra(core, directed=True, return_predecessors=True)
        core_trees = []
        for pred in core_pred:
            tree = np.flatnonzero(pred >= 0)
            core_trees.append([link for level in _levels(core, tree, pred[tree])
                               for link in zip(*(part.tolist() for part in level))])
        gateways = np.array([gateway for _, gateway, _ in self._stubs])
        _, pred, _ = base.dijkstra(stub_graph, directed=True, indices=gateways,
                                   min_only=True, return_predecessors=True)
        gate, transit_of = np.full(n, -1), np.arange(n)
        self._home = [[r] for r in range(n)]
        for members, gateway, transit_router in self._stubs:
            gate[members] = gateway
            transit_of[members] = transit_router
            self._home[members[0]:members[-1] + 1] = [members] * len(members)
        pred[gateways] = transit_of[gateways]  # a gateway's parent is its transit router
        stubs = np.flatnonzero(~transit)
        forest = _levels(graph, stubs, pred[stubs])
        self._core_of, self._paths = np.searchsorted(core_ids, transit_of).tolist(), [()] * n
        for level in forest:
            for child, parent, weight in zip(*(part.tolist() for part in level)):
                self._paths[child] = self._paths[parent] + (weight,)
        self._fold = _Fold(
            stub_graph, core_ids, core_trees, forest, gate,
            np.repeat(np.arange(n), np.diff(graph.indptr)),
            graph.indices.astype(np.intp), graph.data)
        return self._fold

    def _row(self, router: int) -> np.ndarray:
        """Labels inside the source's stub from one search of the stub-only
        graph; its transit router's from the gateway's; every other router's
        folded along the cached trees.  Each label is the left-to-right
        float64 sum of some walk from the source, so once no link lowers any
        label they are scipy's labels exactly, on any graph; the hierarchy
        only makes the relax loop rare."""
        fold = self._fold or self._prepare()
        inside = base.dijkstra(fold.stub_graph, indices=router, directed=True)
        gateway, entry = fold.gate[router], self._core_of[router]
        core = [np.inf] * len(fold.core_ids)
        core[entry] = float(inside[gateway] + self._paths[gateway][0]) if gateway >= 0 else 0.0
        for child, parent, weight in fold.core_trees[entry]:
            core[child] = core[parent] + weight
        row = np.full(self._n_routers, np.inf)
        row[fold.core_ids] = core
        for children, parents, weights in fold.forest:
            row[children] = row[parents] + weights
        np.minimum(row, inside, out=row)
        tails, heads, weights = fold.tails, fold.heads, fold.weights
        while ((via := row[tails] + weights) < row[heads]).any():
            np.minimum.at(row, heads, via)
            self._relax_passes += 1
        return row

    def _entry(self, router: int) -> tuple:
        """The fold's inputs, ~0.7 kB: the source's stub, the core's labels,
        the stub's own and, if the certificate moved any, each label the
        replay misses; it is the fold's own additions, so scipy's bit for bit."""
        passes, row = self._relax_passes, self._row(router)
        core, span = array("d", row[self._fold.core_ids].tolist()), self._home[router]
        moved = {} if self._relax_passes == passes else {
            r: x for r, x in enumerate(row.tolist())
            if x != reduce(add, self._paths[r], core[self._core_of[r]])}
        return span, core, array("d", row[span].tolist()), moved

    def router_delay(self, r1: int, r2: int) -> float:
        if r1 == r2:
            return 0.0
        span, core, own, moved = self._router_distances(r1)
        if self._home[r2] is span:
            return own[r2 - span[0]]  # a stub's routers are numbered in a run
        return moved[r2] if r2 in moved else reduce(add, self._paths[r2], core[self._core_of[r2]])

    def delay(self, a: int, b: int) -> float:
        r1, r2 = self._attach_router[a], self._attach_router[b]
        if r1 == r2:
            return 0.0 if a == b else self._lan_round
        # ``router_delay`` inline: a frame per message costs more than its replay
        span, core, own, moved = self._dist_cache.get(r1) or self._router_distances(r1)
        if self._home[r2] is span:
            return own[r2 - span[0]] + self._lan_round
        if r2 in moved:
            return moved[r2] + self._lan_round
        label = core[self._core_of[r2]]
        for weight in self._paths[r2]:
            label += weight
        return label + self._lan_round
