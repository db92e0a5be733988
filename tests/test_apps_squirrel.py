"""Tests for the Squirrel web cache application."""

import pytest

from repro.apps import squirrel as squirrel_app
from repro.apps.squirrel import SquirrelProxy, WebOrigin
from repro.overlay.utils import build_overlay
from repro.pastry.config import PastryConfig
from repro.pastry.nodeid import key_of, root_among


@pytest.fixture()
def squirrel():
    sim, net, nodes = build_overlay(
        12, config=PastryConfig(leaf_set_size=8), seed=211
    )
    proxies = [SquirrelProxy(n, WebOrigin(fetch_delay=0.2)) for n in nodes]
    return sim, nodes, proxies


def test_first_request_fetches_from_origin(squirrel):
    sim, nodes, proxies = squirrel
    proxies[0].request("http://example.com/a")
    sim.run(until=sim.now + 10)
    assert proxies[0].local_cache.get("http://example.com/a")  # the response came back
    assert sum(p.origin_fetches for p in proxies) == 1
    assert sum(p.remote_hits for p in proxies) == 0


def test_second_request_hits_overlay_cache(squirrel):
    sim, nodes, proxies = squirrel
    proxies[0].request("http://example.com/b")
    sim.run(until=sim.now + 10)
    proxies[1].request("http://example.com/b")
    sim.run(until=sim.now + 10)
    assert proxies[1].local_cache.get("http://example.com/b")
    assert sum(p.origin_fetches for p in proxies) == 1
    assert sum(p.remote_hits for p in proxies) == 1


def test_repeat_request_served_locally(squirrel):
    sim, nodes, proxies = squirrel
    proxies[3].request("http://example.com/c")
    sim.run(until=sim.now + 10)
    before = proxies[3].local_hits
    proxies[3].request("http://example.com/c")
    assert proxies[3].local_hits == before + 1  # a synchronous local hit
    sim.run(until=sim.now + 10)
    assert sum(p.remote_hits for p in proxies) == 0  # and no lookup went out


def test_distinct_urls_have_distinct_homes(squirrel):
    sim, nodes, proxies = squirrel
    for i in range(20):
        proxies[i % len(proxies)].request(f"http://example.com/page{i}")
    sim.run(until=sim.now + 20)
    holders = sum(1 for p in proxies if len(p.home_cache) > 0)
    assert holders >= 3  # URLs spread over several home nodes


def test_lru_eviction_bounds_cache(monkeypatch):
    monkeypatch.setattr(squirrel_app, "LOCAL_CACHE_SIZE", 5)
    monkeypatch.setattr(squirrel_app, "HOME_CACHE_SIZE", 10)
    sim, net, nodes = build_overlay(
        8, config=PastryConfig(leaf_set_size=8), seed=213
    )
    proxies = [SquirrelProxy(n) for n in nodes]
    for i in range(30):
        proxies[0].request(f"http://example.com/{i}")
        sim.run(until=sim.now + 2)
    assert len(proxies[0].local_cache) <= 5
    assert all(len(p.home_cache) <= 10 for p in proxies)


def test_stats_accumulate(squirrel):
    sim, nodes, proxies = squirrel
    for _ in range(3):
        proxies[2].request("http://example.com/stats")
        sim.run(until=sim.now + 5)
    assert proxies[2].requests == 3
    assert proxies[2].local_hits == 2


def test_double_attach_rejected(squirrel):
    _sim, nodes, _proxies = squirrel
    with pytest.raises(ValueError):
        SquirrelProxy(nodes[0])


def test_proxy_chains_after_hooks_already_on_the_node():
    """The runner's metrics hook is not displaced, and runs first."""
    sim, net, nodes = build_overlay(
        8, config=PastryConfig(leaf_set_size=8), seed=215
    )
    proxies = []
    fetches_seen_by_hook = []
    for node in nodes:
        node.on_deliver = lambda n, msg: fetches_seen_by_hook.append(
            sum(p.origin_fetches for p in proxies))
    proxies.extend(SquirrelProxy(n, WebOrigin(fetch_delay=0.2)) for n in nodes)
    proxies[0].request("http://example.com/chained")
    sim.run(until=sim.now + 10)
    assert fetches_seen_by_hook == [0]  # called before the proxy counted it
    # ... and the proxy still served the request
    assert proxies[0].local_cache.get("http://example.com/chained")
    assert sum(p.origin_fetches for p in proxies) == 1


def test_request_whose_home_is_the_requester(squirrel):
    """Origin == root: the response is handed over without a message."""
    sim, nodes, proxies = squirrel
    ring = sorted(n.id for n in nodes)
    url = next(u for u in (f"http://example.com/{i}" for i in range(1000))
               if root_among(ring, key_of(u.encode())) == nodes[0].id)
    proxies[0].request(url)
    sim.run(until=sim.now + 5)
    assert proxies[0].local_cache.get(url)
    assert proxies[0].origin_fetches == 1
