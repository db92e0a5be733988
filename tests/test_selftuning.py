"""Tests for the raw-loss-rate model and self-tuning estimators (paper §4.1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.utils import build_overlay
from repro.pastry import messages as m
from repro.pastry import selftuning
from repro.pastry.config import RT_PROBE_PERIOD_MAX, PastryConfig
from repro.pastry.leafset import LeafSet
from repro.pastry.nodeid import ID_SPACE, NodeDescriptor
from repro.pastry.selftuning import (
    FailureRateEstimator,
    SelfTuner,
    estimate_overlay_size,
    expected_hops,
    prob_faulty,
    raw_loss_rate,
    solve_rt_probe_period,
)


def desc(i):
    return NodeDescriptor(id=i, addr=i)  # one address per id: no member shares the owner's


# ----------------------------------------------------------------------
# Pf(T, mu)
# ----------------------------------------------------------------------
def test_prob_faulty_zero_cases():
    assert prob_faulty(0.0, 1.0) == 0.0
    assert prob_faulty(10.0, 0.0) == 0.0


def test_prob_faulty_small_product_approximates_half():
    # For T*mu << 1, Pf ~ T*mu/2.
    assert prob_faulty(1.0, 1e-6) == pytest.approx(5e-7, rel=1e-2)


def test_prob_faulty_matches_closed_form():
    T, mu = 30.0, 1e-3
    x = T * mu
    expected = 1.0 - (1.0 - math.exp(-x)) / x
    assert prob_faulty(T, mu) == pytest.approx(expected)


def test_prob_faulty_saturates_to_one():
    assert prob_faulty(1e9, 1.0) == pytest.approx(1.0, abs=1e-6)


@given(st.floats(0.001, 1e5), st.floats(1e-9, 1.0))
def test_prob_faulty_in_unit_interval(T, mu):
    p = prob_faulty(T, mu)
    assert 0.0 <= p <= 1.0


@given(st.floats(1e-6, 0.1))
def test_prob_faulty_monotone_in_detection_time(mu):
    values = [prob_faulty(T, mu) for T in (1.0, 10.0, 100.0, 1000.0)]
    assert values == sorted(values)


# ----------------------------------------------------------------------
# expected hops
# ----------------------------------------------------------------------
def test_expected_hops_formula():
    # (2^b - 1)/2^b * log_{2^b} N
    assert expected_hops(65536, 4) == pytest.approx(15 / 16 * 4)
    assert expected_hops(1024, 1) == pytest.approx(0.5 * 10)


def test_expected_hops_floor_one():
    assert expected_hops(1, 4) == 1.0
    assert expected_hops(2, 4) == 1.0  # tiny overlay: at least one hop


# ----------------------------------------------------------------------
# Lr and the Trt solver
# ----------------------------------------------------------------------
def config(**kwargs):
    return PastryConfig(**kwargs)


def test_raw_loss_rate_monotone_in_trt():
    cfg = config()
    mu, n = 1e-4, 10000
    values = [raw_loss_rate(t, mu, n, cfg) for t in (10, 60, 600, 6000)]
    assert values == sorted(values)


def test_raw_loss_zero_without_failures():
    assert raw_loss_rate(60.0, 0.0, 10000, config()) == 0.0


def test_solver_achieves_target():
    cfg = config()
    mu, n = 1e-4, 10000
    trt = solve_rt_probe_period(0.05, mu, n, cfg)
    if cfg.rt_probe_period_min < trt < RT_PROBE_PERIOD_MAX:
        assert raw_loss_rate(trt, mu, n, cfg) == pytest.approx(0.05, rel=1e-3)


def test_solver_clamps_to_floor_when_target_unreachable():
    cfg = config()
    # Extremely high failure rate: even the floor exceeds the target.
    trt = solve_rt_probe_period(0.01, 0.05, 10000, cfg)
    assert trt == cfg.rt_probe_period_min


def test_solver_returns_max_when_failures_negligible():
    cfg = config()
    trt = solve_rt_probe_period(0.05, 1e-12, 10000, cfg)
    assert trt == RT_PROBE_PERIOD_MAX


def test_lower_target_needs_more_probing():
    cfg = config()
    mu, n = 1e-4, 10000
    trt_5 = solve_rt_probe_period(0.05, mu, n, cfg)
    trt_1 = solve_rt_probe_period(0.01, mu, n, cfg)
    assert trt_1 < trt_5  # 1% target -> shorter period -> more traffic


@given(st.floats(1e-6, 1e-2), st.integers(100, 100000))
def test_solver_result_within_bounds(mu, n):
    cfg = config()
    trt = solve_rt_probe_period(0.05, mu, n, cfg)
    assert cfg.rt_probe_period_min <= trt <= RT_PROBE_PERIOD_MAX


def bisect_over_raw_loss_rate(target, mu, n, cfg):
    """The solver as its docstring states it: 64 bisection steps over
    ``raw_loss_rate``, clamped to the probing-period bounds."""
    lo, hi = cfg.rt_probe_period_min, RT_PROBE_PERIOD_MAX
    if raw_loss_rate(lo, mu, n, cfg) >= target:
        return lo
    if raw_loss_rate(hi, mu, n, cfg) <= target:
        return hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if raw_loss_rate(mid, mu, n, cfg) < target:
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=500)
@given(b=st.integers(1, 8), probe_timeout=st.floats(0.01, 60.0),
       heartbeat_period=st.floats(0.1, 3600.0),
       mu=st.floats(0.0, 0.1) | st.floats(1e-15, 1e-6),
       n=st.floats(1.0, 1e7),
       target=st.floats(1e-6, 0.999) | st.floats(1e-15, 1e-6))
def test_solver_is_bit_identical_to_bisecting_raw_loss_rate(
        b, probe_timeout, heartbeat_period, mu, n, target):
    """The solver hoists the Trt-independent terms and inlines
    ``prob_faulty``; the period it returns must not move by one ulp."""
    cfg = PastryConfig(b=b, probe_timeout=probe_timeout,
                       heartbeat_period=heartbeat_period)
    assert (solve_rt_probe_period(target, mu, n, cfg)
            == bisect_over_raw_loss_rate(target, mu, n, cfg))


# ----------------------------------------------------------------------
# N estimation from leaf-set density
# ----------------------------------------------------------------------
def test_estimate_small_overlay_counts_members():
    owner = desc(ID_SPACE // 2)
    ls = LeafSet(owner, 16)
    for i in range(5):
        ls.add(desc(1000 + i))
    assert estimate_overlay_size(ls) == 6.0  # 5 members + owner


def test_estimate_density_for_full_leafset():
    # Place l members evenly spaced by ID_SPACE/N around the owner.
    n_overlay = 1000
    spacing = ID_SPACE // n_overlay
    owner_id = ID_SPACE // 2
    ls = LeafSet(desc(owner_id), 8)
    for k in range(1, 6):
        ls.add(desc((owner_id + k * spacing) % ID_SPACE))
        ls.add(desc((owner_id - k * spacing) % ID_SPACE))
    estimate = estimate_overlay_size(ls)
    assert estimate == pytest.approx(n_overlay, rel=0.05)


def test_estimate_empty_leafset():
    ls = LeafSet(desc(1), 8)
    assert estimate_overlay_size(ls) == 1.0


# ----------------------------------------------------------------------
# mu estimation
# ----------------------------------------------------------------------
def test_mu_zero_without_history():
    est = FailureRateEstimator()
    assert est.estimate(100.0, 50) == 0.0


def test_mu_partial_history_uses_now():
    est = FailureRateEstimator()
    est.start(0.0)
    est.record_failure(10.0)
    # 2 entries (join marker + failure), span = now - first = 100
    assert est.estimate(100.0, 50) == pytest.approx(2 / (50 * 100.0))


def test_mu_full_history_uses_span(monkeypatch):
    monkeypatch.setattr(selftuning, "FAILURE_HISTORY_SIZE", 4)
    est = FailureRateEstimator()
    est.start(0.0)
    for t in (10.0, 20.0, 30.0):
        est.record_failure(t)
    # deque full: K=4, span = 30 - 0
    assert est.estimate(1000.0, 10) == pytest.approx(4 / (10 * 30.0))


def test_mu_matches_true_rate_poisson():
    # M nodes failing at rate mu -> failures arrive at rate M*mu.
    import random

    rng = random.Random(3)
    m_nodes, mu = 40, 1e-3
    est = FailureRateEstimator()  # K = FAILURE_HISTORY_SIZE = 16
    est.start(0.0)
    t = 0.0
    for _ in range(200):
        t += rng.expovariate(m_nodes * mu)
        est.record_failure(t)
    assert est.estimate(t, m_nodes) == pytest.approx(mu, rel=0.5)


# ----------------------------------------------------------------------
# SelfTuner median adoption
# ----------------------------------------------------------------------
def test_tuner_median_of_hints():
    cfg = config()
    tuner = SelfTuner(cfg)
    tuner.local_period = 100.0
    tuner.hints[1] = 50.0
    tuner.hints[2] = 200.0
    assert tuner.current_period() == 100.0  # median of {50, 100, 200}


def test_tuner_ignores_invalid_hints():
    """The node records a peer's hint only when it is a positive period."""
    _sim, _net, (a, b) = build_overlay(2, config(), seed=5)
    b.tuner.hints.clear()
    b.tuner.local_period = 100.0
    for hint in (None, -5.0, 0.0):
        b._on_message(a.addr, m.Heartbeat(sender=a.descriptor, tuning_hint=hint))
    assert b.tuner.hints == {}
    assert b.tuner.current_period() == 100.0


def test_tuner_forgets_failed_peers():
    tuner = SelfTuner(config())
    tuner.local_period = 100.0
    tuner.hints[1] = 10.0
    tuner.forget_peer(1)
    assert tuner.current_period() == 100.0


def test_tuner_clamps_to_config_bounds():
    cfg = config()
    tuner = SelfTuner(cfg)
    tuner.local_period = 1e-9
    assert tuner.current_period() == cfg.rt_probe_period_min
    tuner.local_period = 1e12
    assert tuner.current_period() == RT_PROBE_PERIOD_MAX


def test_recompute_local_end_to_end():
    cfg = config()
    tuner = SelfTuner(cfg)
    tuner.failures.start(0.0)
    for t in range(1, 17):
        tuner.failures.record_failure(float(t * 100))
    ls = LeafSet(desc(ID_SPACE // 2), 8)
    spacing = ID_SPACE // 5000
    for k in range(1, 6):
        ls.add(desc((ID_SPACE // 2 + k * spacing) % ID_SPACE))
        ls.add(desc((ID_SPACE // 2 - k * spacing) % ID_SPACE))
    period = tuner.recompute_local(1700.0, ls, unique_nodes=40)
    assert cfg.rt_probe_period_min <= period <= RT_PROBE_PERIOD_MAX
    assert tuner.mu_estimate > 0
    assert tuner.n_estimate == pytest.approx(5000, rel=0.1)
