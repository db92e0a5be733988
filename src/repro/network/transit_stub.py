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

A row miss is priced by that hierarchy, not by the whole map (``_entry``,
DESIGN §10): one search of the source's stub and its uplink, a fold of the
transit core (≈ 50 routers) along a cached tree, and a certificate checked only
on the links that can fail it, which makes every delay equal to a search
of the whole map bit for bit.
"""

from __future__ import annotations

import random
from array import array
from functools import reduce
from operator import add
from typing import List, NamedTuple

import numpy as np

from repro.network import base
from repro.network.base import Csr, RouterGraphTopology

#: seconds of link delay per unit of distance in the unit square (GT-ITM)
DELAY_PER_UNIT = 0.080
#: a link whose slack from a transit router exceeds this holds from every
#: source under it: outside its stub a source's labels are the router's own
#: sums started from an offset, and rounding moves a slack by < 1e-13 s
#: (labels below 0.25 s, sums of at most ~56 weights, on the maps built)
TIGHT = 1e-9


def _links(keep: np.ndarray, tails: np.ndarray, heads: np.ndarray, weights: np.ndarray,
           n: int) -> Csr:
    """The links ``keep`` as a graph of ``n`` routers (``tails`` ascending)."""
    counts = np.bincount(tails[keep], minlength=n)
    return Csr(np.append(0, np.cumsum(counts)), heads[keep], weights[keep], (n, n))


def _levels(graph: Csr, children: np.ndarray, parents: np.ndarray) -> list:
    """The tree links ``parents[i] -> children[i]`` as ``(children, parents,
    weights)`` per depth, weights read off ``graph``, whose rows list their
    heads ascending: folding the levels in order labels each child from a
    labelled parent (depth 0: a root's)."""
    n = graph.shape[0]
    position = np.full(n, -1)
    position[children] = np.arange(len(children))
    depth = np.zeros(len(children), dtype=np.int64)
    up = position[parents]
    while (inner := up >= 0).any():
        depth[inner] += 1
        up[inner] = position[parents[up[inner]]]
    keys = np.repeat(np.arange(n), np.diff(graph.indptr)) * n + graph.indices
    weights = graph.data[np.searchsorted(keys, parents.astype(np.int64) * n + children)]
    return [(children[at], parents[at], weights[at])
            for at in (depth == d for d in range(depth.max(initial=-1) + 1))]


def _fold_core(trees: list, entry: int, start: float) -> list:
    """The transit routers' labels: ``start`` at ``entry``, then down its tree."""
    core = [np.inf] * len(trees)
    core[entry] = start
    for child, parent, weight in trees[entry]:
        core[child] = core[parent] + weight
    return core


def _stub_graph(graph: Csr, members: list) -> Csr:
    """A stub's links and its uplink as a graph of python lists, searched at
    each row miss from the stub: its routers numbered in their run, then its
    transit router, read off the installed ``graph``, where a stub router
    links only inside its stub and to that router.  The downlink is left
    out: it can lower no label of the stub."""
    first, size = members[0], len(members)
    lo, hi = graph.indptr[first], graph.indptr[first + size]
    heads = graph.indices[lo:hi] - first
    heads[(heads < 0) | (heads >= size)] = size
    starts = np.append(graph.indptr[first:first + size + 1] - lo, hi - lo)
    return Csr(starts.tolist(), heads.tolist(), graph.data[lo:hi].tolist(), (size + 1, size + 1))


class _Fold(NamedTuple):
    """What ``TransitStubTopology._entry`` folds along, built at its first call."""

    core_ids: np.ndarray  # the transit routers
    core_trees: list  # per transit router, its tree's (child, parent, weight), parents first
    #: per stub, by its first router, ``_stub_graph``; a transit router's is
    #: the router alone
    stubs: dict
    #: per transit router, the links off its trees that some source's labels
    #: could fail: (tail, head, weight) with slack <= TIGHT from the router itself
    tight: list


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
        is read off the installed graph, where a doubled link is one entry.
        Then, per transit router, the links off its trees that a fold from it
        leaves within :data:`TIGHT` of lowering a label."""
        graph, n = self._graph, self._n_routers
        tails, heads, weights = (np.repeat(np.arange(n), np.diff(graph.indptr)),
                                 graph.indices, graph.data)
        transit = np.ones(n, dtype=bool)
        transit[self._stub_routers] = False
        core_ids = np.flatnonzero(transit)
        number = np.cumsum(transit) - 1  # a transit router's index in core_ids
        in_core = transit[tails] & transit[heads]
        core = _links(in_core, number[tails], number[heads], weights, len(core_ids))
        stub_graph = _links(~transit[tails] & ~transit[heads], tails, heads, weights, n)
        _, core_pred = base.dijkstra(core, return_predecessors=True)
        core_trees = []
        for pred in core_pred:
            tree = np.flatnonzero(pred >= 0)
            core_trees.append([link for level in _levels(core, tree, pred[tree])
                               for link in zip(*(part.tolist() for part in level))])
        gateways = np.array([gateway for _, gateway, _ in self._stubs])
        _, pred = base.dijkstra(stub_graph, indices=gateways, min_only=True,
                                return_predecessors=True)
        transit_of = np.arange(n)
        self._home = [[r] for r in range(n)]
        stubs = {r: Csr([0, 0], [], [], (1, 1)) for r in core_ids.tolist()}
        for members, _, transit_router in self._stubs:
            transit_of[members] = transit_router
            self._home[members[0]:members[-1] + 1] = [members] * len(members)
            stubs[members[0]] = _stub_graph(graph, members)
        pred[gateways] = transit_of[gateways]  # a gateway's parent is its transit router
        stub_ids = np.flatnonzero(~transit)
        forest = _levels(graph, stub_ids, pred[stub_ids])
        self._core_of, self._paths = np.searchsorted(core_ids, transit_of).tolist(), [()] * n
        for level in forest:
            for child, parent, weight in zip(*(part.tolist() for part in level)):
                self._paths[child] = self._paths[parent] + (weight,)
        core_links = np.flatnonzero(in_core)
        at = dict(zip(zip(tails[core_links].tolist(), heads[core_links].tolist()),
                      core_links.tolist()))
        off_forest = ~np.isin(tails * n + heads,
                              np.concatenate([p * n + c for c, p, _ in forest]))
        tight, ids = [], core_ids.tolist()
        for entry, tree in enumerate(core_trees):
            labels = np.full(n, np.inf)
            labels[core_ids] = _fold_core(core_trees, entry, 0.0)
            for children, parents, level_weights in forest:
                labels[children] = labels[parents] + level_weights
            off_trees = off_forest.copy()
            off_trees[[at[ids[parent], ids[child]] for child, parent, _ in tree]] = False
            slack = labels[tails] + weights - labels[heads]
            links = np.flatnonzero(off_trees & (slack <= TIGHT))
            tight.append(list(zip(tails[links].tolist(), heads[links].tolist(),
                                  weights[links].tolist())))
        self._fold = _Fold(core_ids, core_trees, stubs, tight)
        return self._fold

    def _entry(self, router: int) -> tuple:
        """The fold's inputs, ~0.7 kB: the source's stub, the core's labels,
        the stub's own and, if the certificate fails, each label the replay
        misses.  One search of the source's stub and its uplink labels them
        and its transit router, from which the core is folded.  No link that
        touches the stub can then lower a label, so the certificate is
        checked only on the transit router's tight links (DESIGN §10);
        if one fails, the entry is read off a search of the whole map."""
        fold = self._fold or self._prepare()
        span, entry = self._home[router], self._core_of[router]
        # a transit source's stub is itself alone, labelled 0.0
        inside = base.dijkstra(fold.stubs[span[0]], indices=router - span[0]).tolist()
        core = array("d", _fold_core(fold.core_trees, entry, inside[-1]))
        candidate = span, core, array("d", inside[:len(span)]), {}
        if not any(self._label(candidate, tail) + weight < self._label(candidate, head)
                   for tail, head, weight in fold.tight[entry]):
            return candidate
        row, paths = self._row(router), self._paths
        core = array("d", row[fold.core_ids].tolist())
        moved = {r: x for r, x in enumerate(row.tolist())
                 if x != reduce(add, paths[r], core[self._core_of[r]])}
        return span, core, array("d", row[span].tolist()), moved

    def _label(self, entry: tuple, r2: int) -> float:
        """The delay to router ``r2`` from the source of ``entry``."""
        span, core, own, moved = entry
        if self._home[r2] is span:
            return own[r2 - span[0]]  # a stub's routers are numbered in a run
        return moved[r2] if r2 in moved else reduce(add, self._paths[r2], core[self._core_of[r2]])

    def router_delay(self, r1: int, r2: int) -> float:
        return 0.0 if r1 == r2 else self._label(self._router_distances(r1), r2)

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
