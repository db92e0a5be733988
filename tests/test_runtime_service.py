"""NodeService bookkeeping that must stay bounded over a long life."""

import asyncio

from repro.pastry import messages as m
from repro.runtime.service import LATENCY_WINDOW, NodeService


def test_snapshot_latency_is_a_bounded_window():
    """A ``repro serve`` node delivers for days: what it keeps per delivery
    is a fixed window, and ``latency_ms_p50`` is the median of that."""
    async def main():
        service = await NodeService.start(node_id=7, rng_seed=7)
        assert service.snapshot()["lookups"]["latency_ms_p50"] is None
        n = 10_000
        assert n > LATENCY_WINDOW
        for i in range(n):
            # 10 s lookups first, then a window's worth of 1 s ones
            latency = 10.0 if i < n - LATENCY_WINDOW else 1.0
            service._on_deliver(service.node, m.Lookup(
                msg_id=i, key=i, sent_at=service.clock.now - latency))
        lookups = service.snapshot()["lookups"]
        await service.stop()
        assert lookups["delivered_here"] == n  # counters cover the whole life
        assert len(service._latencies) == LATENCY_WINDOW
        assert not hasattr(service, "_hops")
        assert 1000.0 <= lookups["latency_ms_p50"] < 1100.0
    asyncio.run(main())
