"""Named, independently-seeded random streams.

Every source of randomness in the reproduction (topology generation, trace
generation, workload, per-node protocol choices) draws from its own named
stream derived from a single master seed.  This keeps experiments exactly
reproducible and — crucially — means adding randomness to one subsystem does
not perturb another subsystem's draws.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_stream_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for ``name`` from ``master_seed``.

    This is the single seed-derivation rule for the whole reproduction:
    :class:`RngStreams` uses it for named subsystem streams, and the sweep
    harness (``repro.harness``) uses it to give every job of a sweep an
    independent per-run seed, so a sweep's runs are decorrelated yet exactly
    reproducible regardless of worker count or execution order.
    """
    digest = hashlib.sha256(f"{int(master_seed)}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """Factory of deterministic :class:`random.Random` streams.

    >>> streams = RngStreams(42)
    >>> a = streams.stream("workload")
    >>> b = streams.stream("workload")
    >>> a is b
    True
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        rng = random.Random(self.derive_seed(name))
        self._streams[name] = rng
        return rng

    def derive_seed(self, name: str) -> int:
        """Derive a stable 64-bit seed for ``name`` from the master seed."""
        return derive_stream_seed(self.master_seed, name)
