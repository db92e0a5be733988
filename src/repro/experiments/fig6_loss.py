"""Figure 6: varying the uniform network message loss rate 0%..5%.

Paper shape: RDP and control traffic rise slightly with the loss rate;
lookup losses stay order 1e-5 (per-hop acks recover link losses) rising from
~1.5e-5 to ~3.3e-5; incorrect deliveries are zero at <=1% loss and reach
only ~1.6e-5 at 5%.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.reporting import percent, render
from repro.experiments.resultio import num_key
from repro.experiments.scenarios import measure

LOSS_RATES = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
COLUMNS = (("RDP-mean", "rdp"), ("RDP-med", "rdp_median"), ("control", "control"),
           ("lookup loss", "loss"), ("incorrect", "incorrect"), ("lookups", "lookups"))


def run(
    seed: int = 42,
    trace_scale: float = 0.05,
    duration: float = 2400.0,
    loss_rates=LOSS_RATES,
) -> Dict:
    cells = [(num_key(loss), dict(loss_rate=loss)) for loss in loss_rates]
    fields = [field for _, field in COLUMNS]
    return {"rows": measure(cells, fields, seed, trace_scale, duration)}


def format_report(result: Dict) -> str:
    rows = {percent(float(loss)): row for loss, row in result["rows"].items()}
    return render("Figure 6 — dependability and performance vs network loss rate",
                  [(None, "net loss", COLUMNS, rows)])


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
