"""Figure 5: Poisson traces — RDP / control traffic vs session time, and the
join-latency CDF.

Paper shape: control traffic falls steeply as session time grows (22x from
15 min to 600 min); RDP is roughly flat for sessions >= 60 min, rises ~40%
at 15 min and sharply at 5 min; nodes join in a few seconds (Fig 5 right:
CDF saturates within ~10-40 s, slower for 5-minute sessions).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.reporting import render
from repro.experiments.resultio import num_key
from repro.experiments.scenarios import Scenario, read
from repro.metrics.cdf import cdf_points
from repro.sim.rng import RngStreams
from repro.traces.synthetic import generate_poisson_trace

SESSION_MINUTES = (5, 15, 30, 60, 120, 600)
FIELDS = ("rdp", "rdp_median", "control", "loss", "incorrect", "never_activated",
          "joins")
COLUMNS = (("RDP-mean", "rdp"), ("RDP-med", "rdp_median"), ("control", "control"),
           ("loss", "loss"), ("died joining", "never_activated"), ("joins", "joins"))


def run(
    seed: int = 42,
    n_nodes: int = 120,
    duration: float = 1800.0,
    session_minutes=SESSION_MINUTES,
    topology_scale: float = 0.25,
) -> Dict:
    rows: Dict[str, Dict] = {}
    cdfs: Dict[str, List] = {}
    for minutes in session_minutes:
        runner = Scenario(seed=seed, topology_scale=topology_scale).build_runner()
        trace = generate_poisson_trace(
            RngStreams(seed).stream(f"poisson-{minutes}"),
            n_nodes,
            minutes * 60.0,
            duration,
            name=f"poisson-{minutes}m",
        )
        result = runner.run(trace)
        rows[num_key(minutes)] = read(result, FIELDS)
        if minutes in (5, 30):
            cdfs[num_key(minutes)] = cdf_points(result.stats.join_latencies)
    return {"rows": rows, "join_cdfs": cdfs}


def format_report(result: Dict) -> str:
    parts = [render("Figure 5 — Poisson traces: session time sweep",
                    [(None, "session (min)", COLUMNS, result["rows"])])]
    for minutes, cdf in result["join_cdfs"].items():
        if not cdf:
            continue
        parts.append(f"\njoin latency CDF, {minutes}-minute sessions:")
        for q in (0.5, 0.9, 0.99):
            idx = min(int(q * len(cdf)), len(cdf) - 1)
            parts.append(f"  p{int(q * 100)}: {cdf[idx][0]:.2f}s")
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
