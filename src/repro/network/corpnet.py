"""CorpNet-like topology: a small multi-site corporate network.

The paper's CorpNet has 298 routers measured from the world-wide Microsoft
corporate network, with minimum RTT as the proximity metric.  A corporate
WAN is a few large campuses joined by a low-latency backbone: delays inside
a site are sub-millisecond-to-few-millisecond, and inter-site delays are set
per site pair (e.g. Cambridge–Redmond).  We synthesise that structure: site
clusters with dense cheap internal links, one gateway per site, and a full
backbone mesh whose delays come from site "positions" on a coarse world map.

The low delay variance and strong clustering are what give CorpNet the
lowest RDP of the three topologies in the paper (1.45).
"""

from __future__ import annotations

import random
from typing import List

from repro.network.base import RouterGraphTopology


class CorpNetTopology(RouterGraphTopology):
    name = "CorpNet"

    def __init__(
        self,
        rng: random.Random,
        n_sites: int = 6,
        routers_per_site: int = 50,
    ) -> None:
        super().__init__()
        self._rng = rng
        self._build(n_sites, routers_per_site)

    def _build(self, n_sites: int, routers_per_site: int) -> None:
        rng = self._rng
        rows: List[int] = []
        cols: List[int] = []
        weights: List[float] = []
        n_routers = 0

        def add_edge(a: int, b: int, delay: float) -> None:
            rows.append(a)
            cols.append(b)
            weights.append(delay)

        # Site "positions" on a world-scale line: inter-site backbone delay
        # is proportional to separation (tens of ms between continents).
        site_pos = sorted(rng.uniform(0.0, 1.0) for _ in range(n_sites))
        gateways: List[int] = []
        for site in range(n_sites):
            size = max(3, round(rng.gauss(routers_per_site, routers_per_site * 0.2)))
            members = list(range(n_routers, n_routers + size))
            n_routers += size
            # Dense, cheap intra-site mesh: chain + chords, 0.2-1.5 ms links.
            for idx in range(1, size):
                add_edge(members[idx], members[rng.randrange(idx)],
                         rng.uniform(0.0002, 0.0015))
            for i in range(size):
                for j in range(i + 1, size):
                    if rng.random() < 3.0 / size:
                        add_edge(members[i], members[j], rng.uniform(0.0002, 0.0015))
            gateways.append(members[0])

        # Backbone: full mesh between site gateways.
        for i in range(n_sites):
            for j in range(i + 1, n_sites):
                separation = abs(site_pos[i] - site_pos[j])
                add_edge(gateways[i], gateways[j], 0.004 + 0.140 * separation)

        self._set_graph(n_routers, rows, cols, weights)
