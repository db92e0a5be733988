"""Run a whole MSPastry overlay live on localhost UDP sockets.

:func:`run_live` boots ``n_nodes`` :class:`NodeService` instances in one
process (one socket each, one shared :class:`AsyncioClock`), waits until
every join completes, drives a lookup workload, and reports hops,
latency and routing consistency in a schema-versioned artifact
(``repro-live/1``).

The *plan* — node identifiers, lookup origins and keys — is derived
deterministically from ``LiveSpec.seed``, so a live run and a simulated
run of the same spec route the same workload over the same identifier
space (the basis of the ``live_compare`` experiment).  What stays
nondeterministic is exactly what the paper's testbed numbers include:
kernel scheduling, socket latency, timer jitter.

Routing consistency follows DSN 2004 §5: a lookup is *consistent* when
it is delivered by the node whose identifier is the key's true root
among all currently-live nodes (computed here against the full member
list, which the harness knows and individual nodes do not).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
from typing import Any, Dict, List

from repro.pastry import messages as m
from repro.pastry.config import PastryConfig
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import random_nodeid, root_among
from repro.runtime.service import NodeService

#: Schema tag for live-run artifacts.  Bump on breaking layout changes.
LIVE_SCHEMA = "repro-live/1"
#: delay between successive joins; live joins need real round-trips
JOIN_STAGGER = 0.05
#: delay between successive lookups
LOOKUP_INTERVAL = 0.01
#: quiet period after joins before the workload starts
SETTLE = 0.5


class LiveError(RuntimeError):
    """A live run failed to reach its goal (joins or workload)."""


@dataclasses.dataclass
class LiveSpec:
    """Everything that defines a live run; seed makes the plan replayable."""

    n_nodes: int = 5
    n_lookups: int = 50
    seed: int = 42
    host: str = "127.0.0.1"
    join_timeout: float = 30.0
    lookup_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise LiveError("a live network needs at least one node")
        if self.n_lookups < 0:
            raise LiveError("n_lookups must be non-negative")


def live_config() -> PastryConfig:
    """Protocol profile for short-lived localhost deployments.

    Localhost proximity is flat, so PNS and nearest-neighbour joins buy
    nothing but wall-clock (their probe phases run on real timers);
    heartbeats and probe timeouts are shortened to fit a CI-scale run.
    The routing machinery itself — leaf sets, prefix routing, per-hop
    acks — is the stock MSPastry configuration.
    """
    return PastryConfig(
        leaf_set_size=8,
        heartbeat_period=2.0,
        probe_timeout=0.5,
        pns=False,
        self_tuning=False,
        per_hop_acks=True,
    )


def make_plan(spec: LiveSpec) -> Dict[str, Any]:
    """Deterministic workload plan: node ids, lookup origins and keys."""
    rng = random.Random(spec.seed)
    node_ids = []
    seen = set()
    while len(node_ids) < spec.n_nodes:
        nid = random_nodeid(rng)
        if nid not in seen:  # collisions are ~impossible; stay exact anyway
            seen.add(nid)
            node_ids.append(nid)
    lookups = [
        {"origin": rng.randrange(spec.n_nodes), "key": random_nodeid(rng)}
        for _ in range(spec.n_lookups)
    ]
    return {"node_ids": node_ids, "lookups": lookups}


def root_of(key: int, node_ids: List[int]) -> int:
    """The true root of ``key`` among ``node_ids``, in any order (harness
    oracle; a caller scoring many keys sorts once and uses ``root_among``)."""
    return root_among(sorted(node_ids), key)


def score_lookups(pending: Dict[int, Dict[str, Any]],
                  node_ids: List[int]) -> Dict[str, Any]:
    """The ``lookups`` section of the artifact: each lookup's *first*
    delivery scored against the oracle, then hop and latency percentiles.

    ``pending`` maps msg id to ``{"key": k, "deliveries": [(node_id, hops,
    latency_s), ...]}``; the simulated twin in ``live_compare`` fills the
    same shape and is scored by the same code.
    """
    ring = sorted(node_ids)
    consistent = 0
    hops: List[int] = []
    latencies: List[float] = []
    for entry in pending.values():
        if not entry["deliveries"]:
            continue
        node_id, n_hops, latency = entry["deliveries"][0]
        hops.append(n_hops)
        latencies.append(latency)
        if node_id == root_among(ring, entry["key"]):
            consistent += 1
    hops.sort()
    latencies.sort()
    n = len(latencies)
    return {
        "issued": len(pending),
        "delivered": n,
        "consistent": consistent,
        "routing_consistency": consistent / n if n else None,
        "hops_mean": sum(hops) / n if n else None,
        "hops_p50": hops[n // 2] if n else None,
        "latency_ms_p50": round(latencies[n // 2] * 1000.0, 3) if n else None,
        "latency_ms_p95": (
            round(latencies[min(n - 1, int(n * 0.95))] * 1000.0, 3)
            if n else None),
    }


async def _await_predicate(predicate, timeout: float, interval: float,
                           what: str) -> None:
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            raise LiveError(f"timed out after {timeout:.0f}s waiting for {what}")
        await asyncio.sleep(interval)


async def run_live_async(spec: LiveSpec) -> Dict[str, Any]:
    """Boot the overlay, run the workload, return the artifact dict."""
    loop = asyncio.get_event_loop()
    plan = make_plan(spec)
    node_ids: List[int] = plan["node_ids"]
    cfg = live_config()

    from repro.runtime.clock import AsyncioClock
    clock = AsyncioClock(loop)
    services: List[NodeService] = []
    # msg_id -> {"key": k, "deliveries": [(node_id, hops, latency), ...]}
    pending: Dict[int, Dict[str, Any]] = {}

    def on_deliver(node: MSPastryNode, msg: m.Lookup) -> None:
        entry = pending.get(msg.msg_id)
        if entry is not None:
            entry["deliveries"].append(
                (node.id, msg.hops, clock.now - msg.sent_at))

    try:
        # Seed node first; everyone else bootstraps off its endpoint.
        seed = await NodeService.start(
            node_id=node_ids[0], rng_seed=spec.seed, config=cfg,
            host=spec.host, clock=clock, on_deliver=on_deliver, loop=loop)
        services.append(seed)
        join_started = clock.now
        for i in range(1, spec.n_nodes):
            await asyncio.sleep(JOIN_STAGGER)
            services.append(await NodeService.start(
                node_id=node_ids[i], rng_seed=spec.seed + i, config=cfg,
                host=spec.host, seed_addr=seed.node.addr, clock=clock,
                on_deliver=on_deliver, loop=loop))
        await _await_predicate(
            lambda: all(s.is_active for s in services),
            spec.join_timeout, 0.02,
            f"{spec.n_nodes} joins "
            f"({sum(s.is_active for s in services)} active)")
        join_wall = clock.now - join_started
        if any(s.bootstrap_failed for s in services):
            raise LiveError("seed bootstrap failed on at least one node")
        await asyncio.sleep(SETTLE)

        # Workload: lookups from planned origins to planned keys.
        for item in plan["lookups"]:
            # register-before-route: a lookup whose origin is the key's
            # root delivers synchronously inside route_lookup.
            def register(msg: m.Lookup, key: int = item["key"]) -> None:
                pending[msg.msg_id] = {"key": key, "deliveries": []}
            services[item["origin"]].issue_lookup(
                item["key"], register=register)
            await asyncio.sleep(LOOKUP_INTERVAL)
        await _await_predicate(
            lambda: all(p["deliveries"] for p in pending.values()),
            spec.lookup_timeout, 0.02,
            f"{spec.n_lookups} lookup deliveries "
            f"({sum(bool(p['deliveries']) for p in pending.values())} done)")
    finally:
        for svc in reversed(services):
            await svc.stop()
        clock.close()

    transports = [svc.transport.counters() for svc in services]
    return {
        "schema": LIVE_SCHEMA,
        "spec": dataclasses.asdict(spec),
        "plan_digest": {
            "node_ids": [f"{nid:032x}" for nid in node_ids],
            "n_lookups": len(plan["lookups"]),
        },
        "joins": {
            "completed": spec.n_nodes,
            "wall_seconds": round(join_wall, 3),
        },
        "lookups": score_lookups(pending, node_ids),
        "transport": {
            "messages_sent": sum(t["messages_sent"] for t in transports),
            "messages_malformed": sum(
                t["messages_malformed"] for t in transports),
            "bytes_sent": sum(t["bytes_sent"] for t in transports),
        },
        "clock": {
            "timers_fired": clock.timers_fired,
            "callback_errors": clock.callback_errors,
        },
    }


def run_live(spec: LiveSpec) -> Dict[str, Any]:
    """Synchronous wrapper: run a live overlay to completion."""
    return asyncio.run(run_live_async(spec))


def verify_live_schema(artifact: Dict[str, Any]) -> None:
    """Raise :class:`LiveError` unless ``artifact`` is a valid repro-live/1."""
    if not isinstance(artifact, dict):
        raise LiveError("artifact must be a mapping")
    if artifact.get("schema") != LIVE_SCHEMA:
        raise LiveError(
            f"schema mismatch: {artifact.get('schema')!r} != {LIVE_SCHEMA!r}")
    for section in ("spec", "joins", "lookups", "transport"):
        if section not in artifact:
            raise LiveError(f"artifact missing section {section!r}")
    lk = artifact["lookups"]
    for field in ("issued", "delivered", "consistent", "routing_consistency"):
        if field not in lk:
            raise LiveError(f"lookups section missing {field!r}")


def write_live_artifact(artifact: Dict[str, Any], path: str) -> None:
    verify_live_schema(artifact)
    with open(path, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_live_report(artifact: Dict[str, Any]) -> str:
    """Human-readable summary of a live-run artifact."""
    spec = artifact["spec"]
    joins = artifact["joins"]
    lk = artifact["lookups"]
    consistency = lk["routing_consistency"]
    lines = [
        f"live overlay: {spec['n_nodes']} nodes on {spec['host']} "
        f"(seed {spec['seed']})",
        f"  joins      : {joins['completed']} completed "
        f"in {joins['wall_seconds']:.2f}s",
        f"  lookups    : {lk['delivered']}/{lk['issued']} delivered",
        f"  consistency: "
        + (f"{consistency:.4f}" if consistency is not None else "n/a"),
        f"  hops       : mean "
        + (f"{lk['hops_mean']:.2f}" if lk['hops_mean'] is not None else "n/a")
        + f", p50 {lk['hops_p50']}",
        f"  latency    : p50 {lk['latency_ms_p50']} ms, "
        f"p95 {lk['latency_ms_p95']} ms",
    ]
    return "\n".join(lines)
