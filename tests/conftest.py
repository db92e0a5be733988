"""Shared fixtures for protocol tests."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.overlay.utils import build_overlay
from repro.pastry import messages as m
from repro.pastry.config import PastryConfig
from repro.pastry.nodeid import (ID_SPACE, digit, intern_descriptor, is_closer_root,
                                 shared_prefix_length)

#: the overlay fuzzer's CI budget (``tests/test_overlay_fuzz.py`` runs a
#: fixed derandomized search otherwise): ``--hypothesis-profile=ci``.  Not
#: derandomized, so ``--hypothesis-seed`` picks the search (Hypothesis's own
#: ``ci`` profile, loaded on CI machines, is derandomized).
settings.register_profile("ci", max_examples=1200, deadline=None,
                          print_blob=True, derandomize=False)
#: the whole suite on a fresh seed: ``--hypothesis-profile=random``
settings.register_profile("random", derandomize=False, print_blob=True)
#: tier-1 is one fixed search: every run draws the same examples, with or
#: without a ``.hypothesis/`` database (derandomize implies none)
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

MAX_U128 = ID_SPACE - 1
MAX_U64 = (1 << 64) - 1

ids = st.integers(0, MAX_U128)
#: any descriptor the codec can carry
any_descriptors = st.builds(intern_descriptor, ids, st.integers(0, MAX_U64))


@st.composite
def wire_messages(draw, descs=any_descriptors, senders=None, u128s=ids,
                  schema=m.SCHEMA):
    """Any message of a type in ``schema``, every field drawn for its wire
    kind: descriptors from ``descs``, the sender from ``senders`` (default:
    absent or one of ``descs``), ids and keys from ``u128s``.  NaN is
    excluded: its bit patterns are not canonical across pack/unpack, and
    the protocol never sends NaN timestamps/RTTs."""
    _, cls, fields = draw(st.sampled_from(schema))
    kinds = {
        "u16": st.integers(0, 0xFFFF),
        "u32": st.integers(0, 0xFFFFFFFF),
        "u128": u128s,
        "f64": st.floats(allow_nan=False),
        "bool": st.booleans(),
        "desc": st.none() | descs,
        "desc_list": st.lists(descs, max_size=40),
        "rows": st.dictionaries(st.integers(0, 0xFFFF),
                                st.lists(descs, max_size=6), max_size=6),
        "payload": (st.none() | st.binary(max_size=64) | st.text(max_size=64)
                    | st.integers(-(1 << 63), (1 << 63) - 1)),
    }
    msg = cls()
    msg.sender = draw(st.none() | descs if senders is None else senders)
    msg.tuning_hint = draw(st.none() | st.floats(allow_nan=False))
    for attr, kind in fields:
        setattr(msg, attr, draw(kinds[kind]))
    return msg


@pytest.fixture(scope="module")
def small_overlay():
    """A settled 24-node overlay on a uniform topology (module-cached)."""
    config = PastryConfig(leaf_set_size=8)
    sim, net, nodes = build_overlay(24, config=config, seed=101)
    return sim, net, nodes


def slot_of(node, node_id, b=4):
    """The (row, col) of ``node``'s routing table where ``node_id`` belongs."""
    row = shared_prefix_length(node_id, node.id, b)
    return row, digit(node_id, row, b)


def fresh_overlay(n, **kwargs):
    kwargs.setdefault("config", PastryConfig(leaf_set_size=8))
    return build_overlay(n, **kwargs)


def linear_root(leaf_set, key, unusable=frozenset()):
    """Reference for ``LeafSet.closest_to``: the member-by-member
    ``is_closer_root`` scan it replaced (``Forwarding.next_hop`` ran it on
    every hop)."""
    best = leaf_set.owner
    for d in leaf_set.members():
        if d.id not in unusable and is_closer_root(d.id, best.id, key):
            best = d
    return best


def linear_covers(leaf_set, key):
    """Reference for ``LeafSet.covers``: the form it replaced, on ids and the
    two side views (``Forwarding.next_hop`` ran it on every hop)."""
    if len(leaf_set) == 0:
        return True  # single-node overlay: the owner is root of everything
    if leaf_set.wrapped():
        return True  # the leaf set spans the entire known ring
    leftmost, rightmost = leaf_set.leftmost, leaf_set.rightmost
    if leftmost is None or rightmost is None:
        return False  # one side empty
    span = (rightmost.id - leftmost.id) % ID_SPACE
    return (key - leftmost.id) % ID_SPACE <= span


class EagerMercatorMap:
    """Reference for ``HierarchicalASTopology``'s tables: the eager build it
    replaced — one ``shortest_path`` call per AS, one all-pairs AS
    predecessor matrix, member lists scanned with ``list.index``.  Draws
    from ``rng`` in the same order, so the two maps must be the same map."""

    def __init__(self, rng, n_as, routers_per_as):
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        as_edges = [(0, 1)]
        endpoints = [0, 1]
        for new_as in range(2, n_as):
            targets = set()
            attempts = 0
            while len(targets) < min(2, new_as) and attempts < 50:
                targets.add(rng.choice(endpoints))
                attempts += 1
            for target in sorted(targets):
                as_edges.append((new_as, target))
                endpoints.extend([new_as, target])
        r = [e[0] for e in as_edges] + [e[1] for e in as_edges]
        c = [e[1] for e in as_edges] + [e[0] for e in as_edges]
        as_graph = csr_matrix((np.ones(len(r)), (r, c)), shape=(n_as, n_as))
        # method="D": ties between equal-length AS paths are Dijkstra's, on
        # every map size (scipy's default runs Floyd-Warshall on tiny ones)
        _, self._as_pred = shortest_path(
            as_graph, method="D", unweighted=True, return_predecessors=True,
            directed=False,
        )

        self._router_as = []
        self._as_members = []
        for as_id in range(n_as):
            size = max(2, round(rng.gauss(routers_per_as, routers_per_as * 0.3)))
            first = len(self._router_as)
            self._router_as.extend([as_id] * size)
            self._as_members.append(list(range(first, first + size)))

        self._intra_hops = []
        for members in self._as_members:
            n = len(members)
            er, ec = [], []
            for idx in range(1, n):
                er.append(idx)
                ec.append(rng.randrange(idx))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 2.0 / max(1, n):
                        er.append(i)
                        ec.append(j)
            g = csr_matrix((np.ones(2 * len(er)), (er + ec, ec + er)), shape=(n, n))
            self._intra_hops.append(shortest_path(g, unweighted=True, directed=False))

        self._gateway = {}
        for a, b in as_edges:
            ga = rng.randrange(len(self._as_members[a]))
            gb = rng.randrange(len(self._as_members[b]))
            self._gateway[(a, b)] = (ga, gb)
            self._gateway[(b, a)] = (gb, ga)

    @property
    def n_routers(self):
        return len(self._router_as)

    def router_hops(self, r1, r2):
        if r1 == r2:
            return 0
        a_as, b_as = self._router_as[r1], self._router_as[r2]
        la = self._as_members[a_as].index(r1)
        lb = self._as_members[b_as].index(r2)
        if a_as == b_as:
            return int(self._intra_hops[a_as][la, lb])
        path = [b_as]
        while path[-1] != a_as:
            path.append(int(self._as_pred[a_as, path[-1]]))
        path.reverse()
        hops, current = 0, la
        for here, nxt in zip(path, path[1:]):
            gw_out, gw_in = self._gateway[(here, nxt)]
            hops += int(self._intra_hops[here][current, gw_out]) + 1
            current = gw_in
        return hops + int(self._intra_hops[b_as][current, lb])
