"""Beyond the paper: simulation vs live deployment, same code, same plan.

The repository's central claim is that ``repro.pastry.node`` is *the*
protocol implementation — the simulator and the live UDP runtime are two
substrates under one state machine (DESIGN.md §13).  This experiment
makes that claim measurable, in the spirit of the paper's Fig 8 (which
validates simulation results against a real Squirrel deployment): one
workload plan (node ids, lookup origins, lookup keys — all derived from
the seed) runs twice,

* **live** — N OS processes' worth of sockets in one process:
  ``repro.runtime`` services on localhost UDP, wall-clock timers;
* **sim**  — the deterministic simulator over a uniform-delay topology.

and the report tabulates delivery, routing consistency, hop counts, latency
and bytes per message side by side.  Hops and consistency should agree (same
code, same identifier space); latency differs by construction (kernel
scheduling vs a modelled constant delay) and bytes per message by message mix
(same frames, different timing) — the table shows them next to each other.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.experiments.reporting import format_table
from repro.network.simple import UniformDelayTopology
from repro.network.transport import Network
from repro.pastry import messages as m
from repro.pastry.node import MSPastryNode
from repro.runtime import live
from repro.runtime.live import (
    LiveSpec,
    live_config,
    make_plan,
    run_live,
    score_lookups,
)
from repro.runtime.wire import encode_frame
from repro.sim.engine import Simulator

#: modelled one-way delay for the sim twin; localhost UDP is ~100µs
SIM_DELAY = 0.0002


class _FrameBytes:
    """The twin's ``Network.stats``: adds up the codec frame of every send,
    the bytes ``UdpTransport.bytes_sent`` counts on the live row."""

    total = 0

    def on_send(self, msg: m.Message, src: int, dst: int, now: float) -> None:
        self.total += len(encode_frame(msg))


def _run_sim_twin(spec: LiveSpec, plan: Dict[str, Any]) -> Dict[str, Any]:
    """The same plan under the simulator: ids, origins, keys, stagger."""
    cfg = live_config()
    sim = Simulator()
    frames = _FrameBytes()  # whole run, joins included, like the live counters
    network = Network(sim, UniformDelayTopology(SIM_DELAY),
                      random.Random(spec.seed), stats=frames)
    node_ids: List[int] = plan["node_ids"]
    pending: Dict[int, Dict[str, Any]] = {}

    def on_deliver(node: MSPastryNode, msg: m.Lookup) -> None:
        entry = pending.get(msg.msg_id)
        if entry is not None:
            entry["deliveries"].append(
                (node.id, msg.hops, sim.now - msg.sent_at))

    nodes: List[MSPastryNode] = []
    for i, nid in enumerate(node_ids):
        node = MSPastryNode(sim, network, cfg, nid,
                            random.Random(spec.seed + i),
                            on_deliver=on_deliver)
        nodes.append(node)
        seed_desc = nodes[0].descriptor if i else None
        sim.schedule(i * live.JOIN_STAGGER, node.join, seed_desc)
    # Heartbeats run forever, so the heap never drains: run to a horizon.
    join_horizon = len(node_ids) * live.JOIN_STAGGER + 30.0
    sim.run(until=join_horizon)
    if not all(node.active for node in nodes):
        raise RuntimeError("sim twin: joins did not complete by the horizon")

    def issue(origin: int, key: int) -> None:
        msg = nodes[origin].make_lookup(key)
        pending[msg.msg_id] = {"key": key, "deliveries": []}
        nodes[origin].route_lookup(msg)

    start = sim.now
    for j, item in enumerate(plan["lookups"]):
        sim.schedule_at(start + j * live.LOOKUP_INTERVAL, issue,
                        item["origin"], item["key"])
    workload_horizon = (start + len(plan["lookups"]) * live.LOOKUP_INTERVAL
                        + spec.lookup_timeout)
    sim.run(until=workload_horizon)
    return _row(score_lookups(pending, node_ids),
                frames.total / network.messages_sent)


def _row(lookups: Dict[str, Any], bytes_per_msg: float) -> Dict[str, Any]:
    """One substrate's line of the table, from a ``repro-live/1`` lookups
    section."""
    return {
        "issued": lookups["issued"],
        "delivered": lookups["delivered"],
        "consistency": lookups["routing_consistency"],
        "hops_mean": lookups["hops_mean"],
        "hops_p50": lookups["hops_p50"],
        "latency_ms_p50": lookups["latency_ms_p50"],
        "bytes_per_msg": bytes_per_msg,
    }


def run(seed: int = 42, n_nodes: int = 8, n_lookups: int = 60) -> Dict:
    """Run the shared plan live and simulated; return both scorecards."""
    spec = LiveSpec(n_nodes=n_nodes, n_lookups=n_lookups, seed=seed)
    plan = make_plan(spec)

    live_artifact = run_live(spec)
    transport = live_artifact["transport"]
    live_row = _row(live_artifact["lookups"],
                    transport["bytes_sent"] / transport["messages_sent"])
    sim_row = _run_sim_twin(spec, plan)
    return {
        "spec": {"seed": seed, "n_nodes": n_nodes, "n_lookups": n_lookups},
        "sim_delay": SIM_DELAY,
        "live": live_row,
        "sim": sim_row,
        "agreement": {
            "both_fully_consistent": (
                live_row["consistency"] == 1.0
                and sim_row["consistency"] == 1.0),
            "hops_mean_delta": (
                abs(live_row["hops_mean"] - sim_row["hops_mean"])
                if live_row["hops_mean"] is not None
                and sim_row["hops_mean"] is not None else None),
        },
    }


def format_report(result: Dict) -> str:
    spec = result["spec"]
    rows = []
    for name in ("sim", "live"):
        row = result[name]
        rows.append([
            name,
            f"{row['delivered']}/{row['issued']}",
            f"{row['consistency']:.4f}" if row["consistency"] is not None
            else "n/a",
            f"{row['hops_mean']:.2f}" if row["hops_mean"] is not None
            else "n/a",
            row["hops_p50"],
            row["latency_ms_p50"],
            f"{row['bytes_per_msg']:.1f}",
        ])
    table = format_table(
        ["substrate", "delivered", "consistency", "hops mean", "hops p50",
         "latency p50 (ms)", "bytes/msg"],
        rows,
    )
    agreement = result["agreement"]
    delta = agreement["hops_mean_delta"]
    return (
        f"sim vs live deployment — same protocol code, same plan "
        f"(seed {spec['seed']}, {spec['n_nodes']} nodes, "
        f"{spec['n_lookups']} lookups)\n\n"
        + table
        + "\n\nhops-mean delta: "
        + (f"{delta:.2f}" if delta is not None else "n/a")
        + f"\nfully consistent on both substrates: "
        + ("yes" if agreement["both_fully_consistent"] else "no")
    )
