"""Shared experiment scaffolding: topology factory and standard runs.

The paper's base configuration (§5.1): b=4, l=32, Tls=30 s, per-hop acks,
routing-table probing self-tuned to Lr=5%, probe suppression, symmetric
distance probes, 0.01 lookups/s/node, GATech topology, no network loss,
Gnutella trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.schedule import FaultSchedule
from repro.network.base import Topology
from repro.network.corpnet import CorpNetTopology
from repro.network.hierarchical_as import HierarchicalASTopology
from repro.network.transit_stub import TransitStubTopology
from repro.overlay.runner import OverlayRunner, RunResult
from repro.pastry.config import PastryConfig
from repro.sim.rng import RngStreams
from repro.traces.events import ChurnTrace
from repro.traces.realworld import TRACE_MODELS, generate_real_world_trace


def make_topology(name: str, streams: RngStreams, scale: float = 0.25) -> Topology:
    """Build one of the paper's three topologies (scaled)."""
    rng = streams.stream("topology")
    if name == "gatech":
        return TransitStubTopology.scaled(rng, scale=scale)
    if name == "mercator":
        return HierarchicalASTopology(
            rng,
            n_as=max(8, round(160 * scale)),
            routers_per_as=max(4, round(16 * scale)),
        )
    if name == "corpnet":
        return CorpNetTopology(
            rng, n_sites=6, routers_per_site=max(5, round(50 * scale))
        )
    raise ValueError(f"unknown topology: {name}")


@dataclass
class Scenario:
    """One simulation setup in the paper's base configuration."""

    seed: int = 42
    topology: str = "gatech"
    topology_scale: float = 0.25
    loss_rate: float = 0.0
    lookup_rate: float = 0.01
    stats_window: float = 300.0
    config: Optional[PastryConfig] = None
    #: timed adversarial faults (partitions, bursts, gray nodes), measured time
    fault_schedule: Optional[FaultSchedule] = None
    #: sweep period of the runtime invariant checker; None disables it
    invariant_period: Optional[float] = None

    def build_runner(self) -> OverlayRunner:
        streams = RngStreams(self.seed)
        topology = make_topology(self.topology, streams, self.topology_scale)
        return OverlayRunner(
            self.config or PastryConfig(),
            topology,
            streams,
            loss_rate=self.loss_rate,
            lookup_rate=self.lookup_rate,
            stats_window=self.stats_window,
            fault_schedule=self.fault_schedule,
            invariant_period=self.invariant_period,
        )

    def trace(self, model: str, scale: float, duration: Optional[float]) -> ChurnTrace:
        """The trace of ``model`` (a ``TRACE_MODELS`` name) at population
        ``scale``, cut to ``duration`` seconds (None: all of it)."""
        if model not in TRACE_MODELS:
            raise ValueError(f"unknown trace {model!r}; try {sorted(TRACE_MODELS)}")
        return generate_real_world_trace(
            RngStreams(self.seed).stream("trace"), TRACE_MODELS[model],
            scale=scale, duration=duration,
        )

    def run_trace(self, model: str, scale: float, duration: Optional[float]) -> RunResult:
        return self.build_runner().run(self.trace(model, scale, duration))

    def run_gnutella(self, scale: float = 0.075, duration: float = 3600.0) -> RunResult:
        return self.run_trace("gnutella", scale, duration)
