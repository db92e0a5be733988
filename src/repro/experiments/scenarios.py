"""Shared experiment scaffolding: topology factory, standard runs, and the
metric registry and cell runner every grid-shaped figure is declared over.

The paper's base configuration (§5.1): b=4, l=32, Tls=30 s, per-hop acks,
routing-table probing self-tuned to Lr=5%, probe suppression, symmetric
distance probes, 0.01 lookups/s/node, GATech topology, no network loss,
Gnutella trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.faults import BurstLoss, FaultEvent, FaultSchedule, GEParams
from repro.network.base import Topology
from repro.network.corpnet import CorpNetTopology
from repro.network.hierarchical_as import HierarchicalASTopology
from repro.network.transit_stub import TransitStubTopology
from repro.overlay.runner import OverlayRunner, RunResult
from repro.pastry.config import PastryConfig
from repro.pastry.messages import CAT_DISTANCE, CAT_HEARTBEAT, CAT_RT_PROBE
from repro.sim.rng import RngStreams
from repro.traces.events import ChurnTrace
from repro.traces.realworld import TRACE_MODELS, generate_real_world_trace

#: sweep period of the invariant checker in the fault and attack experiments
INVARIANT_PERIOD = 30.0


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
            stats_window=300.0,
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


Reader = Callable[[RunResult], Any]
#: a row field: a ``METRICS`` name, or a ``(name, reader)`` pair
Column = Union[str, Tuple[str, Reader]]


def category_rate(*categories: str) -> Reader:
    """Reader: messages of ``categories`` sent per active node-second."""
    def rate(result: RunResult) -> float:
        node_seconds = result.stats.active.total_node_seconds or 1.0
        return sum(result.stats.sent_total.get(category, 0) / node_seconds
                   for category in categories)
    return rate


def reconvergence_after(t: float) -> Tuple[str, Reader]:
    """Column: seconds from ``t`` until the invariant sweep is clean."""
    return "reconvergence", lambda result: result.stats.reconvergence_time(t)


#: row field -> how it is read off a ``RunResult``
METRICS: Dict[str, Reader] = {
    "rdp": lambda r: r.rdp,
    "rdp_median": lambda r: r.rdp_median,
    "control": lambda r: r.control_traffic,
    "loss": lambda r: r.loss_rate,
    "measured_loss": lambda r: r.loss_rate,
    "incorrect": lambda r: r.incorrect_delivery_rate,
    "consistency": lambda r: r.routing_consistency,
    "lookups": lambda r: r.stats.n_lookups,
    "hops": lambda r: r.stats.mean_hops(),
    "joins": lambda r: len(r.stats.join_latencies),
    "never_activated": lambda r: r.nodes_never_activated,
    "max_violations": lambda r: r.stats.max_violations(),
    "standing_violations": lambda r: r.stats.standing_violations(),
    "fault_drops": lambda r: sum(r.extras.get("fault_drops", {}).values()),
    "adversary": lambda r: r.extras.get("adversary", {}),
    "heartbeat_traffic": category_rate(CAT_HEARTBEAT),
    "heartbeat_rate": category_rate(CAT_HEARTBEAT),
    "rt_probe_rate": category_rate(CAT_RT_PROBE),
    "probe_rate": category_rate(CAT_RT_PROBE, CAT_HEARTBEAT),
    "distance_rate": category_rate(CAT_DISTANCE),
}


def read(result: RunResult, columns: Sequence[Column]) -> Dict[str, Any]:
    """One row: each column's value in ``result``."""
    row = {}
    for column in columns:
        name, reader = (column, METRICS[column]) if isinstance(column, str) else column
        row[name] = reader(result)
    return row


def measure(
    cells: Iterable[Tuple[str, Dict[str, Any]]],
    columns: Sequence[Column],
    seed: int,
    trace_scale: float,
    duration: float,
) -> Dict[str, Dict[str, Any]]:
    """Run each ``(key, Scenario kwargs)`` cell on the Gnutella trace, in
    the declared order, and read ``columns`` off it: ``{key: row}``."""
    return {
        key: read(Scenario(seed=seed, **kwargs).run_gnutella(
            scale=trace_scale, duration=duration), columns)
        for key, kwargs in cells
    }


def whole_run_bursts(average: float, duration: float) -> FaultSchedule:
    """Gilbert–Elliott bursty loss on every link for the whole run, at a
    long-run loss rate of ``average``."""
    return FaultSchedule([FaultEvent(BurstLoss(GEParams.with_average(average)),
                                     start=0.0, duration=duration)])
