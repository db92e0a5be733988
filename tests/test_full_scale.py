"""The paper-scale setups are ``Scenario`` calls: one pinned, one sized."""

import pytest

from repro.experiments.scenarios import Scenario


def test_corporate_slice_fingerprint():
    """EXPERIMENTS.md's calibration-scale corporate run, event for event."""
    scenario = Scenario(seed=77, topology="corpnet", topology_scale=1.0)
    runner = scenario.build_runner()
    result = runner.run(scenario.trace("microsoft", scale=0.02, duration=3600.0))
    fingerprint = (
        f"{runner.sim.events_executed}:{runner.network.messages_sent}:"
        f"{runner.network.messages_delivered}:{result.stats.n_lookups}:"
        f"{result.final_active}"
    )
    assert fingerprint == "424721:253505:253504:11036:308"


def test_full_scale_trace_has_paper_population():
    # Generate (but do not simulate) a short full-scale Gnutella slice.
    trace = Scenario().trace("gnutella", scale=1.0, duration=3600.0)
    initial = len(trace.initial_nodes())
    assert 1500 <= initial <= 2600  # paper: 1,300..2,700 active


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        Scenario().trace("kazaa", scale=0.01, duration=600.0)
