"""Unit tests for the router-graph topology base class."""

import importlib
import inspect
import pkgutil
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

import repro.network
from repro.network import base as network_base
from repro.network.base import LAN_DELAY, RouterGraphTopology, Topology
from repro.network.corpnet import CorpNetTopology
from repro.network.transit_stub import TransitStubTopology
from repro.sim.rng import RngStreams

# every topology module, so that ``Topology.__subclasses__`` sees them all
for _module in pkgutil.iter_modules(repro.network.__path__):
    importlib.import_module(f"repro.network.{_module.name}")


class LineTopology(RouterGraphTopology):
    """Five routers in a line with unit link delays (analytically known)."""

    def __init__(self):
        super().__init__()
        rows = [0, 1, 2, 3]
        cols = [1, 2, 3, 4]
        self._set_graph(5, rows, cols, [1.0, 1.0, 1.0, 1.0])


def test_router_delay_shortest_path():
    topo = LineTopology()
    assert topo.router_delay(0, 4) == pytest.approx(4.0)
    assert topo.router_delay(1, 3) == pytest.approx(2.0)
    assert topo.router_delay(2, 2) == 0.0


def test_router_delay_symmetric():
    topo = LineTopology()
    for a in range(5):
        for b in range(5):
            assert topo.router_delay(a, b) == pytest.approx(
                topo.router_delay(b, a)
            )


def test_end_node_delay_includes_two_lans():
    topo = LineTopology()
    rng = random.Random(1)
    attachments = [topo.attach(rng) for _ in range(20)]
    a = next(x for x in attachments if topo.router_of(x) == topo.router_of(attachments[0]))
    b = next(
        (x for x in attachments if topo.router_of(x) != topo.router_of(a)),
        None,
    )
    if b is not None:
        expected = topo.router_delay(topo.router_of(a), topo.router_of(b)) + 2 * LAN_DELAY
        assert topo.delay(a, b) == pytest.approx(expected)


def test_same_attachment_zero_delay():
    topo = LineTopology()
    a = topo.attach(random.Random(2))
    assert topo.delay(a, a) == 0.0


def test_colocated_end_nodes_still_cross_lan():
    topo = LineTopology()
    rng = random.Random(3)
    pairs = [topo.attach(rng) for _ in range(30)]
    a = pairs[0]
    twin = next(
        (x for x in pairs[1:] if topo.router_of(x) == topo.router_of(a)), None
    )
    if twin is not None:
        assert topo.delay(a, twin) == pytest.approx(2 * LAN_DELAY)  # two LAN hops


def test_proximity_default_is_rtt():
    topo = LineTopology()
    rng = random.Random(4)
    a, b = topo.attach(rng), topo.attach(rng)
    assert topo.proximity(a, b) == pytest.approx(2 * topo.delay(a, b))


def test_distance_rows_cached_and_evicted_fifo(monkeypatch):
    monkeypatch.setattr(network_base, "MAX_CACHED_DIST_ROWS", 2)
    topo = LineTopology()
    assert topo.router_delay(0, 4) == pytest.approx(4.0)
    row = topo._dist_cache[0]
    assert type(row) is array and row.typecode == "d"
    assert list(row) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert type(row[4]) is float  # a python float, not a numpy scalar
    topo.router_delay(0, 2)  # second call served from the cache
    assert topo._dist_cache[0] is row
    topo.router_delay(1, 0)
    topo.router_delay(0, 1)  # a hit does not refresh row 0's position
    topo.router_delay(2, 0)  # third row: the oldest one goes
    assert list(topo._dist_cache) == [1, 2]
    assert topo.router_delay(0, 4) == pytest.approx(4.0)  # recomputed
    assert list(topo._dist_cache) == [2, 0]


#: the full GATech map the perf workloads build (their ``MAP_SEED``)
PERF_GATECH = TransitStubTopology.scaled(RngStreams(2004).stream("topology"), scale=1.0)


@pytest.mark.parametrize(
    "topo, step",
    [
        pytest.param(LineTopology(), 1, id="LineTopology"),
        pytest.param(CorpNetTopology(random.Random(7)), 1, id="CorpNetTopology"),
        pytest.param(PERF_GATECH, 5, id="TransitStubTopology"),
        *(pytest.param(TransitStubTopology.scaled(random.Random(seed), scale=scale), 1,
                       id=f"TransitStubTopology-{scale}-{seed}")
          for scale in (0.2, 0.3) for seed in (1, 2, 3)),
    ],
)
def test_router_graph_is_symmetric_so_directed_search_is_exact(topo, step):
    """Every ``router_delay`` from a source equals scipy's undirected search
    of the whole map bit for bit: the base class's ``directed=True`` search,
    exact only while ``_set_graph`` stores every link in both directions
    with the same weight, and GATech's replay of its fold's inputs, from
    stub and transit sources alike."""
    graph = topo._graph
    assert (graph != graph.T).nnz == 0
    for source in range(0, topo.n_routers, step):
        undirected = dijkstra(graph, indices=source, directed=False)
        delays = array("d", [topo.router_delay(source, r) for r in range(topo.n_routers)])
        assert delays.tobytes() == undirected.tobytes()


def test_a_row_the_fold_gets_wrong_is_relaxed_to_scipys():
    """The certificate is what makes a GATech row exact: give one vertex a
    real but longer parent in a cached tree level, and its path with it, and
    the row must still equal scipy's, after at least one relax pass, read
    through ``router_delay`` too: the cached entry carries the moved labels."""
    for seed in range(20):
        topo = TransitStubTopology.scaled(random.Random(seed), scale=0.3)
        forest, graph = topo._prepare().forest, topo._graph.tolil()
        source = 0  # a transit router: every stub label comes from the fold
        exact = dijkstra(topo._graph, indices=source, directed=True)
        for depth, (children, parents, weights) in enumerate(forest[1:], start=1):
            labelled = set(np.concatenate([level[0] for level in forest[:depth]]).tolist())
            for i, child in enumerate(children.tolist()):
                for other in graph.rows[child]:
                    if other in labelled and exact[other] + graph[other, child] > exact[child]:
                        parents[i], weights[i] = other, graph[other, child]
                        for level in forest:  # the replayed paths follow the fold's tree
                            for node, parent, weight in zip(*(part.tolist() for part in level)):
                                topo._paths[node] = topo._paths[parent] + (weight,)
                        assert topo._row(source).tobytes() == exact.tobytes()
                        assert topo._relax_passes >= 1
                        delays = [topo.router_delay(source, r) for r in range(topo.n_routers)]
                        assert array("d", delays).tobytes() == exact.tobytes()
                        assert child in topo._dist_cache[source][3]
                        topo._attach_router.extend(range(topo.n_routers))  # i on router i
                        assert topo.delay(source, child) == exact[child] + topo._lan_round
                        return
    pytest.fail("no small map has a stub link that is a longer parent")


def test_one_search_per_row_computed(monkeypatch):
    """``perf/tracing.py`` counts ``base.dijkstra`` calls as rows computed:
    a GATech row is one search, beside two searches once for its trees, and
    a router's delay to itself, as in the base class, needs no row: no
    search, and no cache slot that could evict a live row."""
    calls = []

    def counting(graph, **kwargs):
        calls.append(kwargs.get("indices"))
        return dijkstra(graph, **kwargs)

    monkeypatch.setattr(network_base, "dijkstra", counting)
    monkeypatch.setattr(network_base, "MAX_CACHED_DIST_ROWS", 2)
    topo = TransitStubTopology.scaled(random.Random(7), scale=0.3)
    misses = 0
    for router in [5, 60, 5, 61, 62, 5, 60, 60, 3, 61]:
        misses += router not in topo._dist_cache
        topo.router_delay(router, 100)
    assert len(topo._dist_cache) == 2 and misses == 8  # hits, misses, evictions
    assert len(calls) == misses + 2
    for router in (0, topo.n_routers - 1):  # uncached: a transit and a stub router
        assert topo.router_delay(router, router) == 0.0
    assert len(calls) == misses + 2 and list(topo._dist_cache) == [3, 61]


def test_gatech_delay_is_router_delay_across_two_lans():
    """``delay`` inlines ``router_delay``'s replay: the same float plus two
    LAN crossings, within a stub, across stubs and on one router."""
    topo = TransitStubTopology.scaled(random.Random(1), scale=0.3)
    n = topo.n_routers
    topo._attach_router.extend([*range(n), n - 1])  # i on router i, and a second on the last
    assert topo.delay(n, n - 1) == topo._lan_round and topo.delay(n, n) == 0.0
    for a in range(0, n, 3):
        for b in range(n):
            expected = 0.0 if a == b else topo.router_delay(a, b) + topo._lan_round
            assert topo.delay(a, b) == expected


def test_a_cached_gatech_row_is_its_fold_inputs():
    """A cached GATech entry keeps the core's and the source stub's labels,
    about 0.7 kB, not the 4,924 float64 labels (39 kB) the fold computes."""
    topo = PERF_GATECH
    topo.router_delay(0, 1)  # the fold's trees, built once per map
    topo._dist_cache.clear()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for source in range(2, 64 * 70, 70):  # 64 row misses
        topo.router_delay(source, 1)
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    assert len(topo._dist_cache) == 64
    assert retained / 64 < 1024


def built_topologies(cls=Topology):
    """Every ``Topology`` subclass no other class derives from."""
    for sub in cls.__subclasses__():
        yield from built_topologies(sub) if sub.__subclasses__() else (sub,)


@pytest.mark.parametrize("cls", list(built_topologies()), ids=lambda cls: cls.__name__)
def test_delay_is_a_python_float(cls):
    """The transport adds to and schedules with this value once per message:
    a float64 ndarray row would hand out a boxed ``numpy.float64`` instead
    (a float subclass, so only the exact type tells)."""
    rng = random.Random(7)
    takes_rng = "rng" in inspect.signature(cls).parameters
    topo = cls(rng) if takes_rng else cls()
    points = [topo.attach(rng) for _ in range(12)]
    assert {type(topo.delay(a, b)) for a in points for b in points} == {float}
