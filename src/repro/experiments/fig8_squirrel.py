"""Figure 8: Squirrel web-cache deployment vs simulator traffic validation.

The paper fed the logged workload of a 52-machine, 6-day Squirrel deployment
(node arrivals, failures, page lookups) to the simulator and compared total
traffic per node; the series match closely and show the 4 week days and the
weekend.

Our substitution (DESIGN.md §1): the private deployment log is replaced by a
synthetic deployment trace with the same shape, and the "deployment" series
is produced by an *independent simulation* of the same workload under a
different random seed (different nodeIds, network randomness and timing) —
the comparison validates that the simulated traffic is determined by the
workload trace, not by simulation randomness, which is the property Figure 8
demonstrates.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.apps.squirrel import SquirrelProxy, WebOrigin
from repro.experiments.reporting import downsample, format_series
from repro.experiments.resultio import as_pairs
from repro.network.corpnet import CorpNetTopology
from repro.overlay.runner import OverlayRunner
from repro.pastry.config import PastryConfig
from repro.pastry.messages import CAT_LOOKUP, CONTROL_CATEGORIES
from repro.sim.rng import RngStreams
from repro.traces.squirrel import SquirrelTrace, generate_squirrel_trace


def _simulate(
    trace: SquirrelTrace, seed: int, stats_window: float
) -> Tuple[List[List[float]], Dict]:
    streams = RngStreams(seed)
    topology = CorpNetTopology(streams.stream("topology"), n_sites=2,
                               routers_per_site=20)
    runner = OverlayRunner(
        PastryConfig(),
        topology,
        streams,
        lookup_rate=0.0,  # requests come from the deployment trace
        stats_window=stats_window,
    )
    proxies: Dict[int, SquirrelProxy] = {}
    origin = WebOrigin(fetch_delay=0.25)

    def attach(trace_node, node):
        proxies[trace_node] = SquirrelProxy(node, origin)

    runner.on_spawn = attach

    def schedule_requests(sim, t0):
        def fire(trace_node: int, url: int) -> None:
            proxy = proxies.get(trace_node)
            if proxy is not None and not proxy.node.crashed and proxy.node.active:
                proxy.request(f"http://corp/{url}")

        for t, trace_node, url in trace.lookups:
            sim.schedule(t0 + t, fire, trace_node, url)

    result = runner.run(trace.churn, extra_schedule=schedule_requests)
    series = as_pairs(result.stats.traffic_series(CONTROL_CATEGORIES + (CAT_LOOKUP,)))
    summary = {
        "requests": sum(p.requests for p in proxies.values()),
        "local_hits": sum(p.local_hits for p in proxies.values()),
        "remote_hits": sum(p.remote_hits for p in proxies.values()),
        "origin_fetches": sum(p.origin_fetches for p in proxies.values()),
        "loss": result.loss_rate,
        "incorrect": result.incorrect_delivery_rate,
    }
    return series, summary


def run(
    seed: int = 42,
    n_machines: int = 52,
    n_days: int = 6,
    stats_window: float = 3600.0,
    peak_request_rate: float = 0.02,
) -> Dict:
    trace = generate_squirrel_trace(
        RngStreams(seed).stream("squirrel-trace"),
        n_machines=n_machines,
        n_days=n_days,
        peak_request_rate=peak_request_rate,
    )
    sim_series, sim_summary = _simulate(trace, seed, stats_window)
    deploy_series, deploy_summary = _simulate(trace, seed + 1000, stats_window)
    return {
        "simulator": sim_series,
        "deployment": deploy_series,
        "simulator_summary": sim_summary,
        "deployment_summary": deploy_summary,
        "correlation": _correlation(sim_series, deploy_series),
        "n_requests": len(trace.lookups),
    }


def _correlation(a: List[List[float]], b: List[List[float]]) -> float:
    """Pearson correlation of the two traffic series (aligned windows)."""
    values_a = {t: v for t, v in a}
    paired = [(values_a[t], v) for t, v in b if t in values_a]
    n = len(paired)
    if n < 3:
        return 0.0
    mean_x = sum(x for x, _ in paired) / n
    mean_y = sum(y for _, y in paired) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in paired)
    var_x = sum((x - mean_x) ** 2 for x, _ in paired)
    var_y = sum((y - mean_y) ** 2 for _, y in paired)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


def format_report(result: Dict) -> str:
    parts = [
        "Figure 8 — Squirrel: total traffic per node, simulator vs deployment",
        f"workload: {result['n_requests']} web requests",
        f"series correlation: {result['correlation']:.3f}",
        format_series("\nsimulator run", downsample(result["simulator"])),
        format_series("\ndeployment-proxy run", downsample(result["deployment"])),
    ]
    s = result["simulator_summary"]
    parts.append(
        f"\ncache behaviour: {s['requests']} requests, {s['local_hits']} local"
        f" hits, {s['remote_hits']} overlay hits, {s['origin_fetches']} origin"
        f" fetches; loss {s['loss']:.2e}, incorrect {s['incorrect']:.2e}"
    )
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
