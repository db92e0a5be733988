"""The paper's evaluation (§5), one module per figure or table.

Every module exposes ``run(...) -> dict`` returning the figure's data and a
``format_report(result) -> str`` that prints the same rows/series the paper
reports.  Results are JSON-round-trippable dicts (string keys, lists,
finite numbers — see ``repro.experiments.resultio``) so the sweep harness
(``repro.harness``) can persist them as per-run artifacts and re-render or
aggregate them from disk.  All experiments are scale-parameterised: the defaults finish in
tens of seconds on a laptop; pass larger ``scale``/``duration`` values to
approach the paper's full setups (see DESIGN.md on the scale substitution).

A grid-shaped figure is a declaration, not a loop: its cells (``(row key,
Scenario kwargs)`` pairs), the fields each row reads off a ``RunResult``
(names in ``scenarios.METRICS``) and its ``(header, field)`` table columns.
``scenarios.measure`` runs the cells in their declared order and
``reporting.render`` prints the tables; a module keeps only what is its own
(a penalty or ratio line, CDF quantiles, a formatted column).  fig3, fig4,
fig8 and live_compare report series rather than cells and stay hand-written.

===================  =====================================================
module               paper artefact
===================  =====================================================
fig3_failure_rates   Fig 3: failure-rate time series of the three traces
topologies           §5.3 "Network topology": loss / control / RDP table
fig4_traces          Fig 4: RDP + control traffic per trace, breakdown
fig5_sessions        Fig 5: RDP/control vs session time, join-latency CDF
fig6_loss            Fig 6: dependability/performance vs network loss rate
fig7_params          Fig 7: effect of leaf-set size l and digit size b
ablation             §5.3 "Active probing and per-hop acks" ablation
selftuning           §5.3 self-tuning: target Lr vs achieved loss/cost
fig8_squirrel        Fig 8: Squirrel deployment traffic validation
faults               beyond the paper: partitions, bursty loss, gray nodes
attacks              beyond the paper: Byzantine attack coverage table
live_compare         beyond the paper: sim vs live-UDP run of one plan
===================  =====================================================
"""

from repro.experiments import (  # noqa: F401
    ablation,
    attacks,
    design_ablations,
    faults,
    fig3_failure_rates,
    fig4_traces,
    fig5_sessions,
    fig6_loss,
    fig7_params,
    fig8_squirrel,
    live_compare,
    selftuning,
    topologies,
)

ALL_EXPERIMENTS = {
    "fig3": fig3_failure_rates,
    "topologies": topologies,
    "fig4": fig4_traces,
    "fig5": fig5_sessions,
    "fig6": fig6_loss,
    "fig7": fig7_params,
    "ablation": ablation,
    "selftuning": selftuning,
    "fig8": fig8_squirrel,
    "design": design_ablations,
    "faults": faults,
    "attacks": attacks,
    "live_compare": live_compare,
}
