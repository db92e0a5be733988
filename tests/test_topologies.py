"""Tests for the network topology models."""

import hashlib
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.network import base as network_base
from repro.network.base import RouterGraphTopology
from repro.network.corpnet import CorpNetTopology
from repro.network.hierarchical_as import HierarchicalASTopology
from repro.network.simple import UniformDelayTopology
from repro.network.transit_stub import TransitStubTopology
from repro.sim.rng import RngStreams
from tests.euclidean import EuclideanTopology
from tests.conftest import EagerMercatorMap, as_scipy


def as_members(topo, as_id):
    """The routers of one Mercator AS, in order."""
    return [r for r, a in enumerate(topo._router_as) if a == as_id]


def attach_n(topology, n, seed=1):
    rng = random.Random(seed)
    return [topology.attach(rng) for _ in range(n)]


# ----------------------------------------------------------------------
# Shared behaviours
# ----------------------------------------------------------------------
@pytest.fixture(params=["uniform", "euclidean", "transit", "mercator", "corpnet"])
def topology(request):
    rng = random.Random(7)
    if request.param == "uniform":
        return UniformDelayTopology(0.05)
    if request.param == "euclidean":
        return EuclideanTopology()
    if request.param == "transit":
        return TransitStubTopology.scaled(rng, scale=0.2)
    if request.param == "mercator":
        return HierarchicalASTopology(rng, n_as=16, routers_per_as=5)
    return CorpNetTopology(rng, n_sites=4, routers_per_site=10)


def test_self_delay_zero(topology):
    nodes = attach_n(topology, 5)
    for a in nodes:
        assert topology.delay(a, a) == 0.0


def test_delay_positive_and_symmetric(topology):
    nodes = attach_n(topology, 10)
    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            assert topology.delay(a, b) > 0.0
            assert topology.delay(a, b) == pytest.approx(topology.delay(b, a))


def test_proximity_consistent_with_delay_order(topology):
    nodes = attach_n(topology, 8)
    a = nodes[0]
    by_delay = sorted(nodes[1:], key=lambda x: topology.delay(a, x))
    by_prox = sorted(nodes[1:], key=lambda x: topology.proximity(a, x))
    assert by_delay == by_prox


# ----------------------------------------------------------------------
# Transit-stub specifics
# ----------------------------------------------------------------------
def test_transit_stub_full_scale_router_count():
    topo = TransitStubTopology(random.Random(1))
    # Paper: 5050 routers (10 transit domains x ~5 routers, ~10 stubs of ~10).
    assert 3500 < topo.n_routers < 7000


def test_transit_stub_end_nodes_attach_to_stub_routers():
    rng = random.Random(2)
    topo = TransitStubTopology.scaled(rng, scale=0.2)
    stub_set = set(topo._stub_routers)
    attach_n(topo, 20)
    assert set(topo.attachment_routers.tolist()) <= stub_set


def test_transit_stub_local_cluster_is_closer():
    # Nodes on the same stub router should be much closer than the
    # network-wide average (hierarchical locality).
    rng = random.Random(3)
    topo = TransitStubTopology.scaled(rng, scale=0.3)
    a = topo.attach(rng)
    b = topo.attach(rng)
    while topo.attachment_routers[b] != topo.attachment_routers[a]:
        b = topo.attach(rng)
    rng2 = random.Random(4)
    others = [topo.attach(rng2) for _ in range(30)]
    avg = sum(topo.delay(a, o) for o in others if o != a) / len(others)
    assert topo.delay(a, b) < avg / 3


# ----------------------------------------------------------------------
# Mercator specifics
# ----------------------------------------------------------------------
def test_mercator_proximity_is_integral_hops():
    rng = random.Random(5)
    topo = HierarchicalASTopology(rng, n_as=16, routers_per_as=6)
    nodes = attach_n(topo, 10)
    for a in nodes[:5]:
        for b in nodes[5:]:
            prox = topo.proximity(a, b)
            assert prox == int(prox)
            assert prox >= 2  # at least the two access links


def test_mercator_triangle_violation_possible_but_routes_connected():
    # Hierarchical routing must produce finite hop counts for all pairs.
    rng = random.Random(6)
    topo = HierarchicalASTopology(rng, n_as=20, routers_per_as=4)
    nodes = attach_n(topo, 15)
    for a in nodes:
        for b in nodes:
            assert topo.delay(a, b) < 10.0  # finite and sane


def test_mercator_same_as_shorter_than_cross_as():
    rng = random.Random(8)
    topo = HierarchicalASTopology(rng, n_as=24, routers_per_as=8)
    # two routers in the same AS and two in different ASes
    same = as_members(topo, 0)[:2]
    cross = (as_members(topo, 0)[0], as_members(topo, 12)[0])
    assert topo.router_hops(same[0], same[1]) <= topo.router_hops(*cross)


def test_mercator_hops_cache_consistency():
    rng = random.Random(9)
    topo = HierarchicalASTopology(rng, n_as=12, routers_per_as=5)
    nodes = attach_n(topo, 6)
    first = [[topo.hops(a, b) for b in nodes] for a in nodes]
    second = [[topo.hops(a, b) for b in nodes] for a in nodes]
    assert first == second


@pytest.mark.xfail(strict=True, reason="ROADMAP 25: the hop cache is keyed by the unordered "
                   "pair, the route by the ordered one; the fix moves mercator_map's "
                   "fingerprint (item 17)")
def test_mercator_hop_count_does_not_depend_on_query_order():
    """``router_hops`` caches per unordered router pair, but the hierarchical
    route, and so its hop count, depends on direction: on this map 22 -> 29
    is 5 hops and 29 -> 22 is 10, and whichever is asked first answers both."""
    asked_back_first = HierarchicalASTopology(random.Random(0), n_as=12, routers_per_as=4)
    asked_back_first.router_hops(29, 22)
    fresh = HierarchicalASTopology(random.Random(0), n_as=12, routers_per_as=4)
    assert asked_back_first.router_hops(22, 29) == fresh.router_hops(22, 29)


def _assert_same_map_as_eager_build(rng_class, seed, n_as, routers_per_as):
    """The size-grouped search against the eager build it replaced: the same
    map, and the same hop count for every ordered router pair."""
    topo = HierarchicalASTopology(rng_class(seed), n_as, routers_per_as)
    ref = EagerMercatorMap(rng_class(seed), n_as, routers_per_as)
    assert topo.n_routers == ref.n_routers
    assert topo._router_as == ref._router_as
    assert topo._gateway == ref._gateway
    assert [as_members(topo, a) for a in range(n_as)] == ref._as_members
    routers = range(topo.n_routers)
    # router_hops caches per unordered pair: ask each direction on a cold cache
    for forward in (True, False):
        topo._hops_cache.clear()
        for a in routers:
            for b in routers[a + 1:]:
                pair = (a, b) if forward else (b, a)
                assert topo.router_hops(*pair) == ref.router_hops(*pair), pair
    return topo


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), n_as=st.integers(2, 40),
       routers_per_as=st.integers(2, 12))
@example(seed=0, n_as=2, routers_per_as=2)
def test_mercator_tables_equal_eager_build(seed, n_as, routers_per_as):
    _assert_same_map_as_eager_build(random.Random, seed, n_as, routers_per_as)


class SameSizeRng(random.Random):
    """Every AS gets ``routers_per_as`` routers; links stay random."""

    def gauss(self, mu, sigma):
        return mu


def test_mercator_tables_equal_eager_build_at_size_group_edges():
    # ASes of the minimum size 2, beside sizes that only one AS has
    topo = _assert_same_map_as_eager_build(random.Random, 3, n_as=12, routers_per_as=4)
    sizes = topo._as_size
    assert sizes.count(2) > 1
    assert any(sizes.count(size) == 1 for size in sizes)
    # one size group holds every AS
    topo = _assert_same_map_as_eager_build(SameSizeRng, 5, n_as=20, routers_per_as=9)
    assert set(topo._as_size) == {9}


class SizedChainRng(random.Random):
    """Every AS a chain of ``routers_per_as`` routers: end to end is one
    hop fewer."""

    def gauss(self, mu, sigma):
        return mu

    def randrange(self, n):
        return n - 1

    def random(self):
        return 1.0


def test_mercator_hop_table_holds_exactly_one_byte():
    topo = HierarchicalASTopology(SizedChainRng(0), n_as=2, routers_per_as=256)
    assert [max(table) for table in topo._intra_hops] == [255, 255]
    assert topo._intra_hops[0][255] == 255  # router 0 to router 255
    with pytest.raises(ValueError, match="one byte"):
        HierarchicalASTopology(SizedChainRng(0), n_as=2, routers_per_as=257)


def test_mercator_hop_table_refuses_what_a_byte_cannot_hold():
    class ChainRng(random.Random):
        """Every AS a 300-router chain: end to end is 299 hops."""

        def gauss(self, mu, sigma):
            return 300

        def randrange(self, n):
            return n - 1

        def random(self):
            return 1.0

    with pytest.raises(ValueError, match="one byte"):
        HierarchicalASTopology(ChainRng(0), n_as=2, routers_per_as=300)


def _elements(value):
    if isinstance(value, np.ndarray):
        return value.size
    return len(value) if isinstance(value, (array, bytes, list, tuple)) else 0


def test_mercator_paper_scale_map_pinned_and_small():
    n_as = 2662
    tracemalloc.start()
    topo = HierarchicalASTopology(
        RngStreams(2004).stream("topology"), n_as=n_as, routers_per_as=39)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert topo.n_routers == 104997
    assert not topo._as_pred  # rows wait for the first route from their AS
    # the eager build (57 MB AS distances, 28 MB all-pairs predecessors,
    # 36 MB float64 hop tables) peaked at 129.7 MB; this one at 15.7 MB
    assert peak < 65e6
    for value in vars(topo).values():
        assert _elements(value) < n_as * n_as
    # a hop count inside a connected AS is below its size, so nothing wrapped
    for table, size in zip(topo._intra_hops, topo._as_size):
        assert len(table) == size * size and max(table) < min(size, 256)
    # read on the scipy build of the tables (the parent of the change that
    # searches them by AS size)
    assert hashlib.sha256(b"".join(topo._intra_hops)).hexdigest() == (
        "b363fdcbc4d06c3d5c3c538eaf2bb8d0ae26f887cb6b8a262840a99ef3ca3666")

    rng = random.Random(17)
    n = topo.n_routers
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(20000)]
    for _ in range(5000):  # mostly same-AS pairs
        a = rng.randrange(n)
        pairs.append((a, min(n - 1, a + rng.randrange(8))))
    hops = ",".join(str(topo.router_hops(a, b)) for a, b in pairs)
    # recorded on the eager build (the parent of the change that removed it)
    assert hashlib.sha1(hops.encode()).hexdigest() == (
        "c0dfe08e7535f0f37319747e320b7e57ae635883")


# ----------------------------------------------------------------------
# CorpNet specifics
# ----------------------------------------------------------------------
def test_corpnet_intra_site_much_closer_than_inter_site():
    rng = random.Random(10)
    topo = CorpNetTopology(rng, n_sites=4, routers_per_site=20)
    # End nodes on the same router: essentially LAN distance.
    a = topo.attach(rng)
    nodes = attach_n(topo, 40, seed=11)
    delays = sorted(topo.delay(a, b) for b in nodes if b != a)
    assert delays[0] < 0.02  # someone nearby
    assert delays[-1] > 0.02  # someone across the backbone


def test_corpnet_router_count_close_to_paper():
    rng = random.Random(12)
    topo = CorpNetTopology(rng)
    assert 200 < topo.n_routers < 400  # paper: 298 routers


# ----------------------------------------------------------------------
# Both router-graph maps
# ----------------------------------------------------------------------
@pytest.mark.xfail(strict=True, reason="ROADMAP 20: a link added twice carries the sum "
                   "of both delays; the fix moves every GATech fingerprint (item 17)")
def test_a_link_added_twice_keeps_one_delay(monkeypatch):
    """GATech's ``connect_clique_ish`` and CorpNet's intra-site chords can add
    a link the spanning chain already added, and ``_set_graph`` sums the two
    weights, as scipy's ``csr_matrix`` does.  On the perf workloads' maps 948 of
    8,743 GATech links carry twice their delay, and 22 of 824 CorpNet links
    the sum of two draws."""
    installed = []
    set_graph = RouterGraphTopology._set_graph

    def recording(self, n_routers, rows, cols, weights):
        installed.append((rows, cols, weights))
        set_graph(self, n_routers, rows, cols, weights)

    monkeypatch.setattr(RouterGraphTopology, "_set_graph", recording)
    maps = {
        "GATech": TransitStubTopology.scaled(RngStreams(2004).stream("topology"), scale=1.0),
        "CorpNet": CorpNetTopology(RngStreams(2004).stream("topology")),
    }
    doubled = {}
    for (name, topo), (rows, cols, weights) in zip(maps.items(), installed):
        wrong = np.asarray(as_scipy(topo._graph)[rows, cols]).ravel() != np.asarray(weights)
        doubled[name] = len({frozenset(link) for link in zip(
            np.asarray(rows)[wrong].tolist(), np.asarray(cols)[wrong].tolist())})
    assert doubled == {"GATech": 0, "CorpNet": 0}


@pytest.mark.parametrize("scale", [1.0, 0.5, 0.15])
def test_gatech_trees_are_scipys(scale, monkeypatch):
    """``_prepare``'s two searches give scipy's labels and predecessors:
    no two labels tie on these maps, which is what could order them
    otherwise (the perf map and scales 0.5 and 0.15)."""
    topo = TransitStubTopology.scaled(RngStreams(2004).stream("topology"), scale=scale)
    searches, search = [], network_base.dijkstra
    monkeypatch.setattr(network_base, "dijkstra",
                        lambda graph, **kw: searches.append((graph, kw)) or search(graph, **kw))
    topo._prepare()
    assert len(searches) == 2
    for graph, kwargs in searches:
        ours, theirs = search(graph, **kwargs), dijkstra(as_scipy(graph), **kwargs)
        assert [a.tobytes() for a in ours] == [b.tobytes() for _, b in zip(ours, theirs)]
