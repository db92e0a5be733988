"""Unit tests for TCP-style RTT estimation and per-destination RTO tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry import rto
from repro.pastry.rto import RtoTable, RttEstimator


def make_estimator(**kwargs):
    defaults = dict(initial_rto=0.5, rto_min=0.05, rto_max=6.0)
    defaults.update(kwargs)
    return RttEstimator(**defaults)


def test_initial_rto_matches_configured():
    est = make_estimator()
    assert abs(est.rto - 0.5) < 1e-9


def test_first_sample_initialises_srtt():
    est = make_estimator()
    est.sample(0.2)
    assert est.srtt == 0.2
    assert est.rttvar == 0.1
    assert est.rto == 0.2 + 2.0 * 0.1


def test_steady_rtt_converges_to_tight_rto():
    est = make_estimator()
    for _ in range(100):
        est.sample(0.1)
    assert est.srtt is not None
    assert abs(est.srtt - 0.1) < 1e-3
    assert est.rto < 0.15  # variance decays; aggressive timer


def test_variance_spike_raises_rto():
    est = make_estimator()
    for _ in range(50):
        est.sample(0.1)
    calm = est.rto
    est.sample(1.0)
    assert est.rto > calm


def test_rto_clamped_to_bounds():
    est = make_estimator(rto_min=0.2)
    for _ in range(200):
        est.sample(0.0001)
    assert est.rto == 0.2
    est2 = make_estimator(rto_max=1.0)
    est2.sample(30.0)
    assert est2.rto == 1.0


def test_seed_only_applies_when_unset():
    est = make_estimator()
    est.seed(0.3)
    assert est.srtt == 0.3
    est.seed(0.9)
    assert est.srtt == 0.3  # second seed ignored


def test_table_default_and_sampled():
    table = RtoTable(initial_rto=0.5, rto_min=0.05, variance_weight=2.0)
    assert table.rto(1) == 0.5  # unknown destination
    table.sample(1, 0.1)
    assert table.rto(1) < 0.5
    assert table.rto(2) == 0.5  # other destinations unaffected


def test_table_seed():
    table = RtoTable(0.5, 0.05, 2.0)
    table.seed(5, 0.2)
    assert table.rto(5) < table.initial_rto + 1e-9


def test_table_eviction_bounds_size(monkeypatch):
    monkeypatch.setattr(rto, "MAX_RTO_ENTRIES", 4)
    table = RtoTable(0.5, 0.05, 2.0)
    for addr in range(10):
        table.sample(addr, 0.1)
    assert len(table._table) <= 4
    # Oldest entries evicted; newest retained.
    assert 9 in table._table
    assert 0 not in table._table


# ----------------------------------------------------------------------
# RtoTable against the reference estimator, bit for bit
# ----------------------------------------------------------------------
_rtts = st.one_of(
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    st.sampled_from([0.0, 5e-324, 0.05, 0.1, 6.0]),
)
_bounds = st.tuples(
    st.floats(min_value=0.001, max_value=10.0),  # initial_rto
    st.floats(min_value=0.0, max_value=2.0),  # rto_min
    st.floats(min_value=0.0, max_value=8.0),  # rto_max, may sit below rto_min
    st.sampled_from([2.0, 4.0, 0.5]),  # variance_weight
)


@settings(max_examples=300, deadline=None)
@given(_bounds, st.booleans(),
       st.lists(st.tuples(st.booleans(), _rtts), max_size=30))
def test_table_is_bit_identical_to_the_estimator(bounds, from_no_sample, ops):
    """``RtoTable.rto`` / ``sample`` spell ``isnan``, ``min``, ``max`` and
    ``abs`` as comparisons; ``RttEstimator`` keeps the calls.  Same floats
    after every step, from the no-sample (``nan``) state and from a first
    sample, through both clamps."""
    initial, rto_min, rto_max, weight = bounds
    est = RttEstimator(initial, rto_min, rto_max, variance_weight=weight)
    with pytest.MonkeyPatch.context() as patch:  # one ceiling per example
        patch.setattr(rto, "RTO_MAX", rto_max)
        _replay(est, RtoTable(initial, rto_min, weight), from_no_sample, ops)


def _replay(est, table, from_no_sample, ops):
    if from_no_sample:
        table._table[7] = complex(float("nan"), est.rttvar)
        assert table.rto(7).hex() == est.rto.hex()
    else:
        assert table.rto(7) == table.initial_rto  # unknown destination: unclamped
        ops = [(False, 0.25)] + ops
    for is_seed, rtt in ops:
        if is_seed:
            est.seed(rtt)
            table.seed(7, rtt)
        else:
            est.sample(rtt)
            table.sample(7, rtt)
        entry = table._table[7]
        assert (entry.real.hex(), entry.imag.hex()) == (
            est.srtt.hex(), est.rttvar.hex())
        assert table.rto(7).hex() == est.rto.hex()
