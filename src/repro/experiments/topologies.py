"""§5.3 "Network topology": the three-topology comparison table.

Paper results (Gnutella trace, base configuration):

==========  ===========  ================  =====
topology    lookup loss  control (msg/s)   RDP
==========  ===========  ================  =====
CorpNet     < 1.6e-5     0.239             1.45
GATech      < 1.6e-5     0.245             1.80
Mercator    < 1.6e-5     0.256             2.12
==========  ===========  ================  =====

Expected shape at our scale: zero/near-zero loss and inconsistencies on all
three, control traffic roughly topology-independent, and RDP ordered
CorpNet < GATech < Mercator.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.reporting import render
from repro.experiments.scenarios import measure

PAPER_ROWS = {
    "corpnet": {"control": 0.239, "rdp": 1.45},
    "gatech": {"control": 0.245, "rdp": 1.80},
    "mercator": {"control": 0.256, "rdp": 2.12},
}
FIELDS = ("loss", "incorrect", "control", "rdp", "rdp_median", "lookups")
COLUMNS = (("loss", "loss"), ("incorrect", "incorrect"), ("control", "control"),
           ("paper-ctl", "paper-ctl"), ("RDP-mean", "rdp"),
           ("RDP-med", "rdp_median"), ("paper-RDP", "paper-RDP"))


def run(seed: int = 42, trace_scale: float = 0.06,
        duration: float = 2400.0) -> Dict:
    cells = [(topology, dict(topology=topology)) for topology in PAPER_ROWS]
    return {"rows": measure(cells, FIELDS, seed, trace_scale, duration),
            "paper": PAPER_ROWS}


def format_report(result: Dict) -> str:
    rows = {name: {**row, "paper-ctl": result["paper"][name]["control"],
                   "paper-RDP": result["paper"][name]["rdp"]}
            for name, row in result["rows"].items()}
    return render(
        "Topology table — loss / control traffic / RDP (measured vs paper)\n"
        "(median RDP is the scale-robust stretch; see EXPERIMENTS.md)",
        [(None, "topology", COLUMNS, rows)])


if __name__ == "__main__":  # pragma: no cover
    print(format_report(run()))
