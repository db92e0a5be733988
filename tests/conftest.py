"""Shared fixtures for protocol tests."""

import pytest

from repro.overlay.utils import build_overlay
from repro.pastry.config import PastryConfig
from repro.pastry.nodeid import is_closer_root


@pytest.fixture(scope="module")
def small_overlay():
    """A settled 24-node overlay on a uniform topology (module-cached)."""
    config = PastryConfig(leaf_set_size=8)
    sim, net, nodes = build_overlay(24, config=config, seed=101)
    return sim, net, nodes


def fresh_overlay(n, **kwargs):
    kwargs.setdefault("config", PastryConfig(leaf_set_size=8))
    return build_overlay(n, **kwargs)


def linear_root(leaf_set, key, unusable=frozenset()):
    """Reference for ``LeafSet.closest_to``: the member-by-member
    ``is_closer_root`` scan it replaced (``MSPastryNode._next_hop`` ran it
    on every hop)."""
    best = leaf_set.owner
    for d in leaf_set.members():
        if d.id not in unusable and is_closer_root(d.id, best.id, key):
            best = d
    return best
