"""Bench: fault injection — partitions, bursty loss, gray failures.

Beyond the paper's figures: the dependability claims under adversarial
network pathologies.  Asserts the qualitative story — faults hurt while
they last, equal-average bursty loss is strictly worse than uniform, and
the overlay always reconverges with zero standing violations.
"""

from benchmarks.conftest import run_figure
from repro.experiments import faults


def test_faults_scenarios(benchmark):
    result = run_figure(benchmark, "faults", faults.run, faults.format_report,
                        seed=42, trace_scale=0.04, duration=2400.0)

    # Partition/heal: consistency is violated while the ring is split (two
    # roots per key), the damage is visible to the checker, and the ring
    # re-merges with nothing left standing.
    part = result["partition"]
    assert part["incorrect"] > 0.0
    assert part["fault_drops"] > 0
    assert part["max_violations"] > 10
    assert part["standing_violations"] == 0
    assert part["reconvergence"] is not None
    assert part["reconvergence"] < 600.0

    # Bursty vs uniform at equal average loss: same mean, worse tail —
    # bursts concentrate loss in time, so consistency suffers more.
    burst = result["burst"]
    for rate in (1, 3, 5):
        assert burst[f"uniform-{rate}%"]["standing_violations"] == 0
        assert burst[f"bursty-{rate}%"]["standing_violations"] == 0
        assert burst[f"bursty-{rate}%"]["fault_drops"] > 0
    assert (
        burst["bursty-5%"]["incorrect"] > burst["uniform-5%"]["incorrect"]
    )
    assert burst["bursty-5%"]["max_violations"] >= burst["uniform-5%"]["max_violations"]

    # Gray mix: the overlay expels the liars, readmits them after recovery,
    # and ends the run fully consistent.
    gray = result["gray"]
    assert gray["fault_drops"] > 0
    assert gray["max_violations"] > 0
    assert gray["standing_violations"] == 0
    assert gray["reconvergence"] is not None
