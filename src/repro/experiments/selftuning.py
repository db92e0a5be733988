"""§5.3 self-tuning: achieved raw loss rate vs target, and its traffic cost.

Paper results (without per-hop acks, so the raw loss rate is observable):
tuning to Lr=5% achieves a measured loss of 5.3%; tuning to 1% achieves
1.2%; moving the target from 5% to 1% raises control traffic ~2.6x.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.reporting import percent, render
from repro.experiments.resultio import num_key
from repro.experiments.scenarios import measure
from repro.pastry.config import PastryConfig

TARGETS = (0.05, 0.01)
COLUMNS = (("measured loss", "measured_loss"), ("control", "control"),
           ("RDP", "rdp"))


def run(
    seed: int = 42,
    trace_scale: float = 0.05,
    duration: float = 2400.0,
    targets=TARGETS,
) -> Dict:
    cells = [(num_key(target), dict(config=PastryConfig(
        per_hop_acks=False,  # expose the raw loss rate
        active_rt_probing=True,
        self_tuning=True,
        target_raw_loss=target,
    ))) for target in targets]
    return {"rows": measure(cells, [f for _, f in COLUMNS], seed, trace_scale,
                            duration)}


def format_report(result: Dict) -> str:
    rows = {percent(float(target)): row for target, row in result["rows"].items()}
    parts = [render("Self-tuning — target raw loss rate vs measured loss (acks off)",
                    [(None, "target Lr", COLUMNS, rows)])]
    targets = list(result["rows"])
    if len(targets) >= 2:
        hi, lo = result["rows"][targets[0]], result["rows"][targets[1]]
        if hi["control"] > 0:
            parts.append(
                f"\ncontrol traffic ratio {percent(float(targets[1]))} vs "
                f"{percent(float(targets[0]))}: "
                f"{lo['control'] / hi['control']:.2f}x (paper: 2.6x)"
            )
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
