"""Bench: Figure 5 — session-time sweep and join-latency CDF."""

from benchmarks.conftest import run_figure
from repro.experiments import fig5_sessions as fig5


def test_fig5_sessions(benchmark):
    result = run_figure(benchmark, "fig5_sessions", fig5.run, fig5.format_report,
                        seed=42, n_nodes=100, duration=1500.0,
                        session_minutes=(5, 15, 30, 60, 120))

    rows = result["rows"]
    # Control traffic falls steeply with session time (paper: 22x from
    # 15 min to 600 min; we check strict monotone decrease over the sweep).
    controls = [rows[m]["control"] for m in sorted(rows, key=int)]
    assert all(a > b for a, b in zip(controls, controls[1:]))
    assert rows["15"]["control"] > 3 * rows["120"]["control"]
    # RDP rises sharply at 5-minute sessions (paper: Tls/Trt floors bind).
    assert rows["5"]["rdp"] > 1.5 * rows["60"]["rdp"]
    # RDP roughly flat for >= 30-60 minute sessions.
    assert rows["30"]["rdp"] < 2.5 * rows["120"]["rdp"]
    # No losses anywhere (per-hop acks).
    for minutes, row in rows.items():
        assert row["loss"] < 5e-3, minutes
    # Some nodes die before activating only under extreme churn (paper: 7%
    # at 5-minute sessions).
    assert rows["5"]["never_activated"] >= rows["120"]["never_activated"]
    # Joins complete within tens of seconds (paper Fig 5 right: 0-40 s).
    for minutes, cdf in result["join_cdfs"].items():
        assert cdf, minutes
        median = cdf[len(cdf) // 2][0]
        assert median < 40.0
