"""Squirrel: a decentralized peer-to-peer web cache (paper §5.3.1, Fig 8).

Each participating desktop runs a proxy.  A browser request for a URL is
hashed (SHA-1 in the real system) into the overlay key space and routed to
the key's root — the URL's *home node*.  The home node serves the object
from its cache or fetches it from the origin web server, caches it, and
returns it to the requester, which also caches it locally.

This reconstruction implements the "home-store" Squirrel model the paper
deployed and models the origin server as a configurable fetch latency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.pastry.messages import AppDirect, Lookup
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import key_of

#: LRU capacities (objects) of a proxy's own cache and of its home-node store
LOCAL_CACHE_SIZE = 100
HOME_CACHE_SIZE = 1000


def chain_callback(existing: Optional[Callable], new: Callable) -> Callable:
    """Compose node callbacks so metrics hooks and the proxy coexist.

    The experiment runner installs metrics callbacks on every node; an
    application attaching afterwards must not displace them.  The existing
    callback (if any) runs first, then the application's.
    """
    if existing is None:
        return new

    def chained(*args):
        existing(*args)
        new(*args)

    return chained


@dataclass
class WebOrigin:
    """Models the origin web servers: a flat fetch latency per object."""

    fetch_delay: float = 0.25


@dataclass
class _Request:
    url: str = ""
    reply_to: object = None  # NodeDescriptor


@dataclass
class _Response:
    url: str = ""


class _LruCache:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()

    def get(self, key) -> Optional[object]:
        if key not in self._data:
            return None
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


class SquirrelProxy:
    """The Squirrel proxy running on one overlay node."""

    def __init__(
        self,
        node: MSPastryNode,
        origin: Optional[WebOrigin] = None,
    ) -> None:
        if getattr(node, "_squirrel_attached", False):
            raise ValueError("node already has a Squirrel proxy attached")
        node._squirrel_attached = True
        self.node = node
        self.origin = origin or WebOrigin()
        self.local_cache = _LruCache(LOCAL_CACHE_SIZE)
        self.home_cache = _LruCache(HOME_CACHE_SIZE)
        # statistics
        self.local_hits = 0
        self.remote_hits = 0
        self.origin_fetches = 0
        self.requests = 0
        node.on_deliver = chain_callback(node.on_deliver, self._deliver)
        node.on_app_direct = chain_callback(node.on_app_direct, self._direct)

    # ------------------------------------------------------------------
    # Browser-facing API
    # ------------------------------------------------------------------
    def request(self, url: str) -> None:
        """Issue a web request: a local hit, or a lookup for the URL's home."""
        self.requests += 1
        if self.local_cache.get(url) is not None:
            self.local_hits += 1
            return
        request = _Request(url=url, reply_to=self.node.descriptor)
        self.node.lookup(key_of(url.encode()), payload=request)

    # ------------------------------------------------------------------
    # Home-node side
    # ------------------------------------------------------------------
    def _deliver(self, node: MSPastryNode, msg: Lookup) -> None:
        request = msg.payload
        if not isinstance(request, _Request):
            return
        if self.home_cache.get(request.url) is not None:
            self.remote_hits += 1
            self._respond(request)
        else:
            # Fetch from the origin server, then cache and respond.
            self.origin_fetches += 1
            node.sim.schedule(self.origin.fetch_delay, self._fetched, request)

    def _fetched(self, request: _Request) -> None:
        if self.node.crashed:
            return
        self.home_cache.put(request.url, True)
        self._respond(request)

    def _respond(self, request: _Request) -> None:
        response = _Response(url=request.url)
        if request.reply_to.id == self.node.id:
            self._direct(self.node, AppDirect(payload=response))
        else:
            self.node.send(request.reply_to, AppDirect(payload=response))

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------
    def _direct(self, node: MSPastryNode, msg: AppDirect) -> None:
        response = msg.payload
        if not isinstance(response, _Response):
            return
        self.local_cache.put(response.url, True)
