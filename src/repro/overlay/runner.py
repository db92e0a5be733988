"""Experiment runner: trace-driven fault injection over a full overlay.

A run has two phases.  The *warm-up* builds the initial overlay population
through the real join protocol (staggered joins, no measurements), mirroring
the paper's setups where the overlay exists before the trace starts.  The
*measured* phase replays the churn trace — arrivals join through a random
active node, failures crash-stop — while every active node generates Poisson
lookup traffic; all metrics are collected against the ground-truth oracle.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults.schedule import FaultSchedule
from repro.metrics.collector import StatsCollector
from repro.network.base import Topology
from repro.network.transport import Network
from repro.overlay.invariants import InvariantChecker
from repro.overlay.oracle import Oracle
from repro.overlay.workload import LookupWorkload
from repro.pastry.config import PastryConfig
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import random_nodeid
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.traces.events import ARRIVAL, ChurnTrace

#: seconds between the staggered joins that build the initial population
WARMUP_JOIN_INTERVAL = 0.2
#: seconds the overlay settles after the last warm-up join, before measuring
WARMUP_SETTLE = 90.0


@dataclass
class RunResult:
    """Everything an experiment needs to report paper metrics."""

    stats: StatsCollector
    trace_name: str
    duration: float
    config: PastryConfig
    final_active: int
    nodes_never_activated: int
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def rdp(self) -> float:
        return self.stats.mean_rdp()

    @property
    def rdp_median(self) -> float:
        return self.stats.rdp_percentile(0.5)

    @property
    def control_traffic(self) -> float:
        return self.stats.control_traffic_rate()

    @property
    def loss_rate(self) -> float:
        return self.stats.loss_rate()

    @property
    def incorrect_delivery_rate(self) -> float:
        return self.stats.incorrect_delivery_rate()

    @property
    def routing_consistency(self) -> float:
        return self.stats.routing_consistency()


class OverlayRunner:
    def __init__(
        self,
        config: PastryConfig,
        topology: Topology,
        streams: RngStreams,
        loss_rate: float = 0.0,
        lookup_rate: float = 0.01,
        stats_window: float = 600.0,
        fault_schedule: Optional[FaultSchedule] = None,
        invariant_period: Optional[float] = None,
    ) -> None:
        self.config = config
        self.streams = streams
        self.sim = Simulator()
        self.topology = topology
        self.network = Network(
            self.sim, topology, streams.stream("network"), loss_rate
        )
        self.oracle = Oracle()
        self.collector = StatsCollector(window=stats_window)
        self.lookup_rate = lookup_rate
        self._node_rng = streams.stream("nodes")
        self._seed_rng = streams.stream("seeds")
        # Population bookkeeping is a dense slot array indexed by the
        # trace-local node id (trace generators allocate them as a
        # counter), preallocated for the whole trace at run() time; a
        # slot is None before spawn and after crash.
        self._population: List[Optional[MSPastryNode]] = []
        self._t0 = 0.0
        self._never_activated = 0
        self.fault_schedule = fault_schedule
        self.invariant_period = invariant_period
        self.checker: Optional[InvariantChecker] = None
        #: optional hook called as on_spawn(trace_node_id, node) right after
        #: a node is created — applications attach themselves here
        self.on_spawn = None
        self.workload = LookupWorkload(
            self.sim,
            streams.stream("workload"),
            lookup_rate,
            on_issue=self._on_lookup_issued,
        )

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, trace_node: int) -> MSPastryNode:
        node = MSPastryNode(
            self.sim,
            self.network,
            self.config,
            random_nodeid(self._node_rng),
            self._node_rng,
            on_active=self._on_active,
            on_deliver=self._on_deliver,
            on_drop=self._on_drop,
        )
        population = self._population
        if trace_node >= len(population):  # direct calls outside a trace
            population.extend([None] * (trace_node + 1 - len(population)))
        population[trace_node] = node
        self.oracle.node_alive(node)
        if self.on_spawn is not None:
            self.on_spawn(trace_node, node)
        seed_node = self.oracle.random_active(self._seed_rng)
        seed = seed_node.descriptor if seed_node is not None else None
        node.join(seed, seed_provider=self._fresh_seed)
        return node

    def _fresh_seed(self):
        seed_node = self.oracle.random_active(self._seed_rng)
        return seed_node.descriptor if seed_node is not None else None

    def _crash(self, trace_node: int) -> None:
        population = self._population
        node = population[trace_node] if trace_node < len(population) else None
        if node is None or node.crashed:
            return
        population[trace_node] = None
        was_active = node.active
        if not was_active:
            self._never_activated += 1
        node.crash()
        self.oracle.node_crashed(node)
        if was_active and self.sim.now >= self._t0:
            self.collector.on_active_change(self.sim.now - self._t0, -1)

    def _on_active(self, node: MSPastryNode) -> None:
        self.oracle.node_activated(node)
        if self.sim.now >= self._t0:
            self.collector.on_active_change(self.sim.now - self._t0, +1)
            self.collector.on_join(self.sim.now - node.joined_at)
            self.workload.start_node(node)

    def _on_deliver(self, node: MSPastryNode, msg) -> None:
        if self.sim.now < self._t0:
            return
        correct = self.oracle.is_correct_root(node.id, msg.key)
        delay = self.topology.delay(msg.source.addr, node.addr)
        self.collector.on_lookup_delivered(
            msg, self.sim.now - self._t0, correct, delay if delay > 0 else None)

    def _on_drop(self, node: MSPastryNode, msg) -> None:
        if self.sim.now >= self._t0:
            self.collector.on_lookup_dropped(msg, self.sim.now - self._t0)

    def _on_lookup_issued(self, msg) -> None:
        if self.sim.now >= self._t0:
            self.collector.on_lookup_issued(msg, self.sim.now - self._t0)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(
        self,
        trace: ChurnTrace,
        extra_schedule=None,
    ) -> RunResult:
        """Warm up the initial population, then replay ``trace`` measured.

        ``extra_schedule(sim, t0)``, when given, is called before the run so
        callers can schedule application workloads in measured time (their
        trace timestamps shifted by ``t0``).  A ``fault_schedule`` given at
        construction is likewise installed in measured time, and the
        invariant checker (when ``invariant_period`` is set) sweeps the
        overlay from the start of the measured phase, recording violation
        counts into the collector.
        """
        initial = trace.initial_nodes()
        if trace.events:
            slots = 1 + max(event.node for event in trace.events)
            if slots > len(self._population):
                self._population.extend(
                    [None] * (slots - len(self._population)))
        warmup = len(initial) * WARMUP_JOIN_INTERVAL + WARMUP_SETTLE
        self._t0 = warmup

        if self.fault_schedule is not None:
            self.fault_schedule.install(
                self.sim, self.network, self.streams.stream("faults"),
                offset=warmup,
            )
        if self.invariant_period is not None:
            collector = self.collector
            self.checker = InvariantChecker(
                self.sim,
                self.oracle,
                period=self.invariant_period,
                on_report=lambda now, counts: collector.on_invariant_check(
                    now - warmup, counts
                ),
                start_delay=warmup,
            )

        # The run skeleton — warm-up joins, the measurement switch, then
        # every trace event — is enqueued up front, in this order (it fixes
        # the seq numbers the golden traces pin).  None is ever cancelled.
        schedule_call = self.sim.schedule_call
        spawn, crash = self._spawn, self._crash
        for i, trace_node in enumerate(initial):
            schedule_call(i * WARMUP_JOIN_INTERVAL, spawn, trace_node)
        schedule_call(warmup, self._start_measurement)
        for event in trace.events:
            if event.time == 0.0 and event.kind == ARRIVAL:
                continue  # already scheduled as warm-up joins
            callback = spawn if event.kind == ARRIVAL else crash
            schedule_call(warmup + event.time, callback, event.node)

        if extra_schedule is not None:
            extra_schedule(self.sim, warmup)

        # Disable the cyclic GC for the duration of the run: the event loop
        # allocates millions of short-lived tuples/messages whose lifetimes
        # are fully refcount-managed (handles are dropped on pop), so the
        # collector only burns time scanning them.  Pure wall-clock; no
        # effect on event order or RNG streams.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.sim.run(until=warmup + trace.duration)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.collector.finish(trace.duration)
        extras: Dict[str, object] = {}
        if self.network.faults is not None:
            extras["fault_drops"] = dict(self.network.faults.drops)
            if self.network.faults.adversary_counters:
                extras["adversary"] = dict(self.network.faults.adversary_counters)
        return RunResult(
            stats=self.collector,
            trace_name=trace.name,
            duration=trace.duration,
            config=self.config,
            final_active=self.oracle.active_count,
            nodes_never_activated=self._never_activated,
            extras=extras,
        )

    def _start_measurement(self) -> None:
        # The collector shifts transport timestamps by t0 itself (and
        # ignores warm-up events); installing it directly keeps the
        # per-message stats path one call deep.
        self.collector.t0 = self._t0
        self.network.stats = self.collector
        self.collector.active.count = self.oracle.active_count
        for node in self.oracle.active_nodes():
            self.workload.start_node(node)
