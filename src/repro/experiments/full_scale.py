"""The paper's full-scale experiment setups, as runnable presets.

The benchmarks run reduced-scale versions of every experiment (see
EXPERIMENTS.md); this module documents and constructs the *paper-scale*
setups for anyone willing to spend the CPU hours: the full GATech topology
(5,050 routers), the complete traces (17,000-node/60 h Gnutella,
1,468-node/7-day OverNet, 20,000-machine/37-day Microsoft), and the base
configuration of §5.1.

Example (several hours of wall-clock in pure Python)::

    from repro.experiments.full_scale import build_full_run
    runner, trace = build_full_run("gnutella")
    result = runner.run(trace)

Every preset accepts ``scale``/``duration`` overrides, so the same builder
serves calibration runs at intermediate sizes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.network.corpnet import CorpNetTopology
from repro.network.hierarchical_as import HierarchicalASTopology
from repro.network.transit_stub import TransitStubTopology
from repro.overlay.runner import OverlayRunner
from repro.pastry.config import PastryConfig
from repro.sim.rng import RngStreams
from repro.traces.events import ChurnTrace
from repro.traces.realworld import (
    GNUTELLA,
    MICROSOFT,
    OVERNET,
    generate_real_world_trace,
)

#: trace presets: (model, paper population scale)
TRACES = {
    "gnutella": (GNUTELLA, 1.0),
    "overnet": (OVERNET, 1.0),
    "microsoft": (MICROSOFT, 1.0),
}

#: topology presets at the paper's full sizes
TOPOLOGIES = {
    # 10 transit domains x ~5 routers, ~10 stubs of ~10 routers: ~5,050
    "gatech": lambda rng: TransitStubTopology(rng),
    # scaled-down stand-in for the 102,639-router Mercator map; the full
    # map is n_as=2662, routers_per_as=39 (about a second and 16 MB)
    "mercator": lambda rng: HierarchicalASTopology(
        rng, n_as=266, routers_per_as=16
    ),
    # 298 routers, like the measured corporate network
    "corpnet": lambda rng: CorpNetTopology(rng, n_sites=6, routers_per_site=50),
}


def build_full_run(
    trace_name: str,
    topology_name: str = "gatech",
    seed: int = 42,
    scale: Optional[float] = None,
    duration: Optional[float] = None,
    config: Optional[PastryConfig] = None,
) -> Tuple[OverlayRunner, ChurnTrace]:
    """Construct a paper-scale runner and trace (not yet run)."""
    if trace_name not in TRACES:
        raise ValueError(f"unknown trace {trace_name!r}; try {sorted(TRACES)}")
    if topology_name not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology_name!r}; try {sorted(TOPOLOGIES)}"
        )
    model, full_scale = TRACES[trace_name]
    streams = RngStreams(seed)
    topology = TOPOLOGIES[topology_name](streams.stream("topology"))
    runner = OverlayRunner(
        config or PastryConfig(),
        topology,
        streams,
        lookup_rate=0.01,  # §5.1 base configuration
        stats_window=model.analysis_window,
    )
    trace = generate_real_world_trace(
        streams.stream("trace"),
        model,
        scale=full_scale if scale is None else scale,
        duration=duration,
    )
    return runner, trace


def estimated_cost(trace: ChurnTrace) -> str:
    """Back-of-envelope wall-clock estimate for a full run."""
    # Empirically ~25k simulator events per node-hour of simulated time at
    # the base configuration, and ~300k events/second in CPython.
    node_hours = len(trace.initial_nodes()) * trace.duration / 3600.0
    events = node_hours * 25_000
    seconds = events / 300_000
    return (
        f"~{events / 1e6:.0f}M events, very roughly {seconds / 3600:.1f} h "
        f"of wall clock in CPython"
    )
