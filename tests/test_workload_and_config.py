"""Tests for the lookup workload generator and configuration validation."""

import pytest

from repro.overlay.utils import build_overlay
from repro.overlay.workload import LookupWorkload
from repro.pastry.config import MAX_PROBE_RETRIES, PastryConfig
from repro.sim.rng import RngStreams


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def test_poisson_rate_approximately_correct():
    sim, _net, nodes = build_overlay(
        8, config=PastryConfig(leaf_set_size=8), seed=501
    )
    workload = LookupWorkload(sim, RngStreams(1).stream("w"), rate=0.1)
    for node in nodes:
        workload.start_node(node)
    horizon = 600.0
    sim.run(until=sim.now + horizon)
    expected = 0.1 * len(nodes) * horizon
    assert workload.issued == pytest.approx(expected, rel=0.2)


def test_workload_stops_on_crash():
    sim, _net, nodes = build_overlay(
        8, config=PastryConfig(leaf_set_size=8), seed=503
    )
    workload = LookupWorkload(sim, RngStreams(2).stream("w"), rate=0.5)
    victim = nodes[0]
    workload.start_node(victim)
    sim.run(until=sim.now + 20)
    count = workload.issued
    victim.crash()
    sim.run(until=sim.now + 60)
    assert workload.issued == count  # nothing after the crash


def test_workload_zero_rate_never_fires():
    sim, _net, nodes = build_overlay(
        4, config=PastryConfig(leaf_set_size=8), seed=505
    )
    workload = LookupWorkload(sim, RngStreams(3).stream("w"), rate=0.0)
    workload.start_node(nodes[0])
    sim.run(until=sim.now + 100)
    assert workload.issued == 0


def test_workload_on_issue_called_before_delivery():
    sim, _net, nodes = build_overlay(
        6, config=PastryConfig(leaf_set_size=8), seed=507
    )
    order = []
    workload = LookupWorkload(
        sim, RngStreams(4).stream("w"), rate=1.0,
        on_issue=lambda msg: order.append(("issue", msg.msg_id)),
    )
    for node in nodes:
        node.on_deliver = lambda n, msg: order.append(("deliver", msg.msg_id))
        workload.start_node(node)
    sim.run(until=sim.now + 10)
    seen = set()
    for kind, msg_id in order:
        if kind == "issue":
            seen.add(msg_id)
        else:
            assert msg_id in seen  # never delivered before registration


def test_workload_negative_rate_rejected():
    from repro.sim.engine import Simulator

    with pytest.raises(ValueError):
        LookupWorkload(Simulator(), RngStreams(5).stream("w"), rate=-1.0)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_config_defaults_match_paper_base():
    config = PastryConfig()
    assert config.b == 4
    assert config.leaf_set_size == 32
    assert config.heartbeat_period == 30.0
    assert config.probe_timeout == 3.0  # the TCP SYN timeout
    assert MAX_PROBE_RETRIES == 2
    assert config.target_raw_loss == 0.05
    assert config.per_hop_acks and config.active_rt_probing
    assert config.self_tuning and config.probe_suppression
    assert config.pns and config.symmetric_distance_probes


def test_config_rt_probe_floor():
    config = PastryConfig()
    assert config.rt_probe_period_min == (2 + 1) * 3.0  # (retries+1) * To


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(b=0),
        dict(b=9),
        dict(leaf_set_size=5),
        dict(leaf_set_size=0),
        dict(probe_timeout=0.0),
        dict(heartbeat_period=-1.0),
        dict(target_raw_loss=0.0),
        dict(target_raw_loss=1.0),
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        PastryConfig(**kwargs)
