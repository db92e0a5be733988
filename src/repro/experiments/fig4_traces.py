"""Figure 4: RDP and control traffic over (normalized) time per trace.

Paper shape: RDP stays roughly constant around 1.8–2.2 for Gnutella/OverNet
and lower for Microsoft; control traffic fluctuates with the daily pattern
around ~0.25 msg/s/node for the open traces and ~3x lower for Microsoft;
the Gnutella breakdown is dominated by distance probes (joins) and leaf-set
heartbeats/probes.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.reporting import downsample, format_series, format_table, render
from repro.experiments.resultio import as_pairs
from repro.experiments.scenarios import Scenario, read
from repro.pastry.messages import CONTROL_CATEGORIES
from repro.sim.rng import RngStreams
from repro.traces.realworld import (
    GNUTELLA,
    TRACE_MODELS,
    generate_real_world_trace,
)

COLUMNS = (("RDP-mean", "rdp"), ("RDP-med", "rdp_median"), ("control", "control"),
           ("loss", "loss"), ("incorrect", "incorrect"))


def run(
    seed: int = 42,
    scale: float = 0.05,
    microsoft_scale: float = 0.008,
    duration: float = 4 * 3600.0,
    topology_scale: float = 0.25,
) -> Dict:
    result = {"traces": {}, "breakdown": None}
    for name, model in TRACE_MODELS.items():
        scenario = Scenario(seed=seed, topology_scale=topology_scale)
        runner = scenario.build_runner()
        if name == "microsoft":
            trace_scale = microsoft_scale
        else:
            # Scale every open trace to the same active population so the
            # per-node traffic comparison is not confounded by overlay size
            # (the paper runs each trace at its native population, but at
            # our reduced scale OverNet's 455 nodes would shrink below the
            # leaf-set size).
            trace_scale = scale * GNUTELLA.avg_active / model.avg_active
        trace = generate_real_world_trace(
            RngStreams(seed).stream(f"trace-{name}"),
            model,
            scale=trace_scale,
            duration=duration,
        )
        run_result = runner.run(trace)
        stats = run_result.stats
        result["traces"][name] = {
            **read(run_result, [f for _, f in COLUMNS]),
            "rdp_series": as_pairs(stats.rdp_series()),
            "control_series": as_pairs(stats.traffic_series()),
        }
        if name == "gnutella":
            result["breakdown"] = {category: as_pairs(stats.traffic_series((category,)))
                                   for category in CONTROL_CATEGORIES}
    return result


def format_report(result: Dict) -> str:
    parts = [render("Figure 4 — RDP and control traffic per trace",
                    [(None, "trace", COLUMNS, result["traces"])])]
    for name, t in result["traces"].items():
        parts.append(format_series(f"\n{name} RDP over time", downsample(t["rdp_series"])))
        parts.append(
            format_series(f"{name} control traffic over time",
                          downsample(t["control_series"]))
        )
    if result["breakdown"]:
        parts.append("\nGnutella control-traffic breakdown (mean msg/s/node):")
        rows = []
        for category, series in result["breakdown"].items():
            if series:
                rows.append((category, sum(v for _t, v in series) / len(series)))
        parts.append(format_table(["category", "mean rate"], rows))
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
