"""The four simulated workloads: inputs, one run, checks, metrics.

Each is an open loop in simulated time (Poisson lookups per node, as in the
paper) over a churn trace, on one of the paper's three maps.  Population,
map size, loss and lookup rate are fixed; only the simulated ``duration``
follows ``--seconds``, so the work is the same on every commit.
``perf/README.md`` says why each is here.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from metrics import percentile, span_count, span_metrics
from repro.faults import BurstLoss, FaultEvent, FaultSchedule, Partition
from repro.network.base import MAX_CACHED_DIST_ROWS
from repro.network.corpnet import CorpNetTopology
from repro.network.hierarchical_as import HierarchicalASTopology
from repro.network.transit_stub import TransitStubTopology
from repro.overlay.runner import OverlayRunner
from repro.pastry.config import PastryConfig
from repro.sim.rng import RngStreams
from repro.traces.realworld import (GNUTELLA, MICROSOFT, OVERNET, TraceModel,
                                    generate_real_world_trace)

#: The three maps stand for the paper's fixed map files, so they are built
#: from this seed whatever ``--seed`` says; ``--seed`` drives the trace, node
#: ids, attachment points, lookup keys and every protocol draw.  (A map per
#: seed moves the simulated latencies by 20% and more between seeds.)
MAP_SEED = 2004
#: StatsCollector's default grace: a lookup this old and undelivered is lost
SETTLE_GRACE_S = 60.0
#: simulated seconds for every smoke run (just past the grace)
SMOKE_DURATION_S = 90.0


def _gatech(rng: random.Random, smoke: bool):
    return TransitStubTopology.scaled(rng, scale=0.15 if smoke else 1.0)


def _corpnet(rng: random.Random, smoke: bool):
    return CorpNetTopology(rng, n_sites=3 if smoke else 6,
                           routers_per_site=12 if smoke else 50)


def _mercator(rng: random.Random, smoke: bool):
    if smoke:
        return HierarchicalASTopology(rng, n_as=120, routers_per_as=12)
    return HierarchicalASTopology(rng, n_as=2662, routers_per_as=39)


@dataclass(frozen=True)
class SimWorkload:
    name: str
    why: str
    topology: Callable[[random.Random, bool], Any]
    model: TraceModel
    #: share of the trace's published population (and the smoke share)
    scale: float
    smoke_scale: float
    #: simulated seconds measured per second of ``--seconds``
    sim_s_per_s: float
    lookup_rate: float = 0.01
    loss_rate: float = 0.0
    #: BurstLoss over [0.1, 0.3) and Partition(0.3) over [0.5, 0.7) of the
    #: measured time, invariant sweeps every 1/20 of it
    faults: bool = False


SIM_WORKLOADS = {w.name: w for w in (
    SimWorkload(
        "gnutella_churn",
        "paper base setup, ~800 nodes on the full GATech map: ~700 "
        "attachment routers overflow the 512-row Dijkstra cache, so joins, "
        "leaf-set repair, probes and topology cache misses do the work",
        _gatech, GNUTELLA, scale=0.4, smoke_scale=0.03, sim_s_per_s=12.0),
    SimWorkload(
        "corpnet_lookups",
        "same node code used the other way: ~300 nodes on CorpNet, almost "
        "no churn, 0.5 lookups/s/node, so next-hop/ack/RTO forwarding and "
        "collector intake dominate and topology always hits",
        _corpnet, MICROSOFT, scale=0.02, smoke_scale=0.003,
        sim_s_per_s=40.0, lookup_rate=0.5),
    SimWorkload(
        "mercator_map",
        "~500 nodes on the 104k-router Mercator map: the only workload "
        "where set-up (map build) is large and delay is AS-path hop "
        "counting, not Dijkstra rows",
        _mercator, GNUTELLA, scale=0.25, smoke_scale=0.03, sim_s_per_s=40.0),
    SimWorkload(
        "lossy_faults",
        "dependability half: ~455 OverNet nodes, 3% loss, a loss burst, a "
        "partition, invariant sweeps: transport general path, fired "
        "retransmit timers, fault hooks; only here are lookups lost",
        _gatech, OVERNET, scale=1.0, smoke_scale=0.12, sim_s_per_s=20.0,
        # 25 times the base lookup rate: ~23k lookups, so that the two
        # delivery rates and the p95 hold still between seeds (at 0.05/s
        # the p95 sits on the retransmission cliff and swings 20%)
        lookup_rate=0.25, loss_rate=0.03, faults=True),
)}


@dataclass
class Built:
    """One set-up: everything ``OverlayRunner.run`` needs, and what it cost."""

    topology: Any  # the map itself, never the tracing proxy
    trace: Any
    runner: OverlayRunner
    duration: float
    build_s: float
    generate_s: float
    total_s: float


def build(spec: SimWorkload, seed: int, seconds: float, smoke: bool,
          tracer: Optional[Any] = None) -> Built:
    """Generate the workload's inputs from ``seed`` and construct the runner."""
    t0 = time.perf_counter()
    duration = SMOKE_DURATION_S if smoke else spec.sim_s_per_s * seconds
    streams = RngStreams(seed)
    topology = spec.topology(RngStreams(MAP_SEED).stream("topology"), smoke)
    t1 = time.perf_counter()
    trace = generate_real_world_trace(
        streams.stream("trace"), spec.model,
        scale=spec.smoke_scale if smoke else spec.scale, duration=duration)
    t2 = time.perf_counter()
    schedule = period = None
    if spec.faults:
        schedule = FaultSchedule([
            FaultEvent(BurstLoss(), 0.1 * duration, 0.2 * duration),
            FaultEvent(Partition(0.3), 0.5 * duration, 0.2 * duration),
        ])
        period = duration / 20.0
    seen = topology
    if tracer is not None:
        from tracing import topology_proxy
        seen = topology_proxy(topology, tracer)
    runner = OverlayRunner(
        PastryConfig(), seen, streams, loss_rate=spec.loss_rate,
        lookup_rate=spec.lookup_rate, fault_schedule=schedule,
        invariant_period=period)
    t3 = time.perf_counter()
    return Built(topology, trace, runner, duration,
                 build_s=t1 - t0, generate_s=t2 - t1, total_s=t3 - t0)


def run(spec: SimWorkload, seed: int, seconds: float, smoke: bool,
        setups: int, tracer: Optional[Any]) -> Dict[str, Any]:
    """Set up ``setups`` times (median reported), run once, check, measure."""
    built: Optional[Built] = None
    setup_times: List[float] = []
    for _ in range(setups):
        built = None  # free the previous map before building the next
        gc.collect()
        built = build(spec, seed, seconds, smoke, tracer)
        setup_times.append(built.total_s)
    assert built is not None
    runner, trace = built.runner, built.trace

    t0 = time.perf_counter()
    result = runner.run(trace)
    run_s = time.perf_counter() - t0

    stats, network, sim = result.stats, runner.network, runner.sim
    t0 = time.perf_counter()
    modelled = {
        "overlay.rdp_mean": stats.mean_rdp(),
        "overlay.control_msgs_per_node_s": stats.control_traffic_rate(),
        "overlay.lookup_loss_rate": stats.loss_rate(),
        "overlay.incorrect_delivery_rate": stats.incorrect_delivery_rate(),
    }
    report_s = time.perf_counter() - t0

    horizon = stats.end_time - SETTLE_GRACE_S
    settled = [r for r in stats.lookups.values() if r.sent_at <= horizon]
    lost = sum(1 for r in settled if r.delivered_at is None)
    incorrect = sum(1 for r in settled if r.correct is False)
    latencies = sorted((r.delivered_at - r.sent_at) * 1000.0
                       for r in stats.lookups.values()
                       if r.delivered_at is not None)
    routers = built.topology
    distinct_routers = (
        len(np.unique(routers.attachment_routers))
        if hasattr(routers, "attachment_routers") else 0)
    sizes = {
        "nodes_initial": len(trace.initial_nodes()),
        "trace_events": len(trace),
        "n_routers": routers.n_routers,
        "distinct_attachment_routers": distinct_routers,
        "simulated_s": built.duration,
        "lookups": stats.n_lookups,
        "lookups_settled": len(settled),
        "lookups_lost": lost,
        "lookups_incorrect": incorrect,
        "events": sim.events_executed,
    }
    fingerprint = (f"{sim.events_executed}:{network.messages_sent}:"
                   f"{network.messages_delivered}:{stats.n_lookups}:"
                   f"{result.final_active}")

    problems: List[str] = []
    if not settled or not latencies:
        problems.append("no settled or delivered lookups to score")
    if runner.workload.issued != stats.n_lookups:
        problems.append("collector saw a different number of lookups than "
                        "the workload issued")
    if network.messages_sent < (network.messages_delivered
                                + network.messages_lost
                                + network.messages_dropped_dead):
        problems.append("transport counters do not add up")
    if not spec.faults and network.faults is not None:
        problems.append("a fault table is attached on a fault-free workload")
    if not smoke:
        problems += _guards(spec, sizes, network, seconds)

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "lookups_per_s": stats.n_lookups / run_s,
        "lookup_latency_p50_ms": percentile(latencies, 0.50) if latencies else 0.0,
        "lookup_latency_p95_ms": percentile(latencies, 0.95) if latencies else 0.0,
        "lookup_delivery_rate": 1.0 - modelled["overlay.lookup_loss_rate"],
        "correct_delivery_rate": 1.0 - modelled["overlay.incorrect_delivery_rate"],
    }
    out = {
        "end_to_end": end_to_end,
        "modelled": modelled,
        "fingerprint": fingerprint,
        "sizes": sizes,
        "attempted": len(settled),
        # Under injected loss and partition a lost or misdelivered lookup
        # is the modelled outcome (scored by the two delivery rates); on a
        # fault-free network it is a failed operation.
        "failed": 0 if spec.faults else lost + incorrect,
        "problems": problems,
    }
    if tracer is not None:
        layers = _layers(tracer, run_s)
        layers.update(modelled)
        layers.update({
            "sim.events": tracer.roots,
            "sim.promotions": sim.scheduler_stats()["promotions"],
            "sim.compactions": sim.heap_compactions,
            "transport.lost": network.messages_lost,
            "transport.dropped_dead": network.messages_dropped_dead,
            "topology.build_s": built.build_s,
            "metrics.report_s": report_s,
            "overlay.invariant_sweeps":
                runner.checker.sweeps if runner.checker is not None else 0,
            "faults.drops":
                sum(network.faults.drops.values())
                if network.faults is not None else 0,
            "traces.events": len(trace),
            "traces.generate_s": built.generate_s,
        })
        if layers["sim.events"] != sim.events_executed:
            problems.append("traced root events != engine events_executed")
        if layers["transport.sends"] != network.messages_sent:
            problems.append("traced sends != transport messages_sent")
        if not smoke:
            problems += _traced_guards(spec, sizes, layers)
        out["per_layer"] = layers
    return out


def _guards(spec: SimWorkload, sizes: Dict[str, Any], network: Any,
            seconds: float) -> List[str]:
    """Each workload must keep stressing what it is here for."""
    problems = []
    if spec.name == "gnutella_churn" and (
            sizes["distinct_attachment_routers"] <= MAX_CACHED_DIST_ROWS):
        problems.append("attachment routers fit the Dijkstra row cache")
    if spec.name == "corpnet_lookups" and sizes["lookups"] < 5000 * seconds:
        problems.append(f"only {sizes['lookups']} lookups")
    if spec.name == "mercator_map" and sizes["n_routers"] <= 100_000:
        problems.append(f"map has only {sizes['n_routers']} routers")
    if spec.name == "lossy_faults" and network.messages_lost == 0:
        problems.append("no message was lost")
    return problems


def _traced_guards(spec: SimWorkload, sizes: Dict[str, Any],
                   layers: Dict[str, float]) -> List[str]:
    problems = []
    misses = layers["topology.row_misses"]
    if spec.name == "gnutella_churn" and (
            misses <= sizes["distinct_attachment_routers"]):
        problems.append("no Dijkstra row was ever recomputed")
    if spec.name == "corpnet_lookups" and misses > sizes["n_routers"]:
        problems.append("Dijkstra rows were recomputed on CorpNet")
    if spec.faults != (layers["faults.hook_calls"] > 0):
        problems.append(f"faults.hook_calls = {layers['faults.hook_calls']}")
    return problems


def _layers(tracer: Any, traced_run_s: float) -> Dict[str, float]:
    """Per-layer counts and self times from the spans and counters."""
    agg, counts = tracer.agg, tracer.counts
    layers = span_metrics(agg)
    armed = counts["sim.timers_armed"]
    sends = counts["transport.send_calls"] + counts["transport.batched_sends"]
    layers.update({
        "sim.timers_armed": armed,
        "sim.timers_fired": counts["sim.timers_fired"],
        "sim.timer_fire_ratio":
            counts["sim.timers_fired"] / armed if armed else 0.0,
        "sim.fire_and_forget": counts["sim.fire_and_forget"],
        "sim.batch_calls": counts["sim.batch_calls"],
        "sim.batch_items": counts["sim.batch_items"],
        "sim.far_inserts": counts["sim.far_inserts"],
        "transport.sends": sends,
        "transport.send_many_calls": counts["transport.send_many_calls"],
        "transport.send_many_msgs": counts["transport.send_many_msgs"],
        "transport.fast_path_share":
            counts["transport.fast_path_sends"] / sends if sends else 0.0,
        "topology.delay_calls": span_count(agg, "topology.delay"),
        "topology.delays_to_calls": span_count(agg, "topology.delays_to"),
        "topology.delays_to_items": counts["topology.delays_to_items"],
        "topology.proximity_calls": span_count(agg, "topology.proximity"),
        "topology.row_misses": span_count(agg, "topology.dijkstra"),
        "metrics.intake_calls": span_count(agg, "metrics.intake"),
        "overlay.spawns": span_count(agg, "pastry.o.join"),
        "overlay.crashes": span_count(agg, "pastry.o.crash"),
        "faults.hook_calls": span_count(agg, "faults.hook"),
        "trace.unattributed_share":
            1.0 - tracer.total_self_s() / traced_run_s,
    })
    return layers
