"""Bench: §5.3 network-topology table (CorpNet / GATech / Mercator)."""

from benchmarks.conftest import run_figure
from repro.experiments import topologies


def test_topology_table(benchmark):
    result = run_figure(benchmark, "topologies", topologies.run,
                        topologies.format_report,
                        seed=44, trace_scale=0.08, duration=2400.0)

    rows = result["rows"]
    # Dependability: no losses, no inconsistent deliveries on any topology.
    for name, row in rows.items():
        assert row["loss"] < 1e-3, name
        assert row["incorrect"] < 1e-3, name
    # Control traffic roughly topology-independent (paper: 0.239..0.256).
    controls = [row["control"] for row in rows.values()]
    assert max(controls) < 1.5 * min(controls)
    # Median RDP ordering: CorpNet <= GATech < Mercator (paper: 1.45/1.80/2.12).
    assert rows["corpnet"]["rdp_median"] <= rows["gatech"]["rdp_median"] * 1.15
    assert rows["gatech"]["rdp_median"] < rows["mercator"]["rdp_median"]
    # Stretch stays moderate everywhere.
    for row in rows.values():
        assert row["rdp_median"] < 3.0
