"""The benchmark's metric names and units, in one place.

``BENCHMARK.json`` lists the same names with their direction and bound;
``perf/tests`` checks that the two agree and that every run emits exactly
these.  Layer names are the repo's modules.
"""

from __future__ import annotations

from typing import Dict

#: what a user of the system sees; every workload reports every one
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "lookups_per_s": "1/s",
    "lookup_latency_p50_ms": "ms",
    # p95 and no higher: where churn or loss makes a few percent of the
    # lookups wait out a timeout the latency distribution has a cliff, whose
    # place moves between seeds -- p97-p99 on the churn workloads, p96-p97
    # on lossy_faults; live_udp's p99 swings with the scheduler
    "lookup_latency_p95_ms": "ms",
    "lookup_delivery_rate": "fraction",
    "correct_delivery_rate": "fraction",
}

#: the eight ``repro.pastry.messages`` categories
CATEGORIES = ("join", "leafset", "heartbeats", "rt_probes", "distance_probes",
              "rt_maintenance", "lookup", "acks_retransmits")

PER_LAYER: Dict[str, str] = {
    # sim/engine.py
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "sim.timers_armed": "count",
    "sim.timers_fired": "count",
    "sim.timer_fire_ratio": "ratio",
    "sim.fire_and_forget": "count",
    "sim.batch_calls": "count",
    "sim.batch_items": "count",
    "sim.far_inserts": "count",
    "sim.promotions": "count",
    "sim.compactions": "count",
    # network/transport.py
    "transport.sends": "count",
    "transport.send_many_calls": "count",
    "transport.send_many_msgs": "count",
    "transport.fast_path_share": "ratio",
    "transport.lost": "count",
    "transport.dropped_dead": "count",
    "transport.self_s": "s",
    # network/base.py and the maps
    "topology.build_s": "s",
    "topology.delay_calls": "count",
    "topology.delays_to_calls": "count",
    "topology.delays_to_items": "count",
    "topology.proximity_calls": "count",
    "topology.row_misses": "count",
    "topology.miss_s": "s",
    "topology.self_s": "s",
    # pastry/node.py and its components, by message category
    **{f"pastry.{cat}.{leaf}": unit for cat in CATEGORIES
       for leaf, unit in (("msgs", "count"), ("self_s", "s"))},
    "pastry.timers.fired": "count",
    "pastry.timers.self_s": "s",
    # metrics/collector.py
    "metrics.intake_calls": "count",
    "metrics.self_s": "s",
    "metrics.report_s": "s",
    # overlay/: runner, workload, oracle, invariant checker, and the four
    # paper numbers (modelled: exact for a given workload and seed)
    "overlay.spawns": "count",
    "overlay.crashes": "count",
    "overlay.self_s": "s",
    "overlay.invariant_sweeps": "count",
    "overlay.invariant_s": "s",
    "overlay.rdp_mean": "ratio",
    "overlay.control_msgs_per_node_s": "msg/s/node",
    "overlay.lookup_loss_rate": "fraction",
    "overlay.incorrect_delivery_rate": "fraction",
    # faults/state.py
    "faults.hook_calls": "count",
    "faults.drops": "count",
    "faults.self_s": "s",
    # traces/
    "traces.events": "count",
    "traces.generate_s": "s",
    # runtime/wire.py, clock.py, transport.py and the live driver
    "wire.encode_calls": "count",
    "wire.encode_s": "s",
    "wire.decode_calls": "count",
    "wire.decode_s": "s",
    "wire.bytes_per_msg": "B/msg",
    "clock.timers_armed": "count",
    "clock.timers_fired": "count",
    "clock.self_s": "s",
    "udp.datagrams_sent": "count",
    "udp.send_s": "s",
    "udp.malformed": "count",
    "runtime.loop_s": "s",
    "driver.late_ms_p95": "ms",
    "driver.latency_p99_ms": "ms",
    # tracing itself
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

#: which per-layer ``*_s`` metric each span name's self time goes to; a span
#: name missing here is an error, so the layer times always partition the
#: traced run
SPAN_LAYER: Dict[str, str] = {
    "sim.run": "sim.self_s",
    "sim.schedule": "sim.self_s",
    "transport.send": "transport.self_s",
    "transport.send_many": "transport.self_s",
    "transport.deliver": "transport.self_s",
    "topology.attach": "topology.self_s",
    "topology.delay": "topology.self_s",
    "topology.delays_to": "topology.self_s",
    "topology.proximity": "topology.self_s",
    "topology.dijkstra": "topology.miss_s",
    **{f"pastry.h.{cat}": f"pastry.{cat}.self_s" for cat in CATEGORIES},
    "pastry.o.join": "pastry.join.self_s",
    "pastry.o.lookup": "pastry.lookup.self_s",
    "pastry.o.crash": "pastry.timers.self_s",
    "pastry.timers": "pastry.timers.self_s",
    "metrics.intake": "metrics.self_s",
    "overlay.events": "overlay.self_s",
    "overlay.oracle": "overlay.self_s",
    "overlay.invariant": "overlay.invariant_s",
    "faults.hook": "faults.self_s",
    "faults.events": "faults.self_s",
    "wire.encode": "wire.encode_s",
    "wire.decode": "wire.decode_s",
    "clock.schedule": "clock.self_s",
    "udp.send": "udp.send_s",
}


def span_metrics(agg: Dict[str, list]) -> Dict[str, float]:
    """What every traced run derives from the span aggregates alone: each
    layer's self time, messages handled per category, timers fired.

    ``agg`` maps span name to ``[count, total_ns, self_ns]``.
    """
    layers: Dict[str, float] = {
        metric: 0.0 for metric in set(SPAN_LAYER.values())}
    for name, (_count, _total_ns, self_ns) in agg.items():
        layers[SPAN_LAYER[name]] += self_ns / 1e9
    for cat in CATEGORIES:
        layers[f"pastry.{cat}.msgs"] = span_count(agg, f"pastry.h.{cat}")
    layers["pastry.timers.fired"] = span_count(agg, "pastry.timers")
    return layers


def span_count(agg: Dict[str, list], name: str) -> int:
    return agg[name][0] if name in agg else 0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]
