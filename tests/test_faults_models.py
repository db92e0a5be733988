"""Channel fault models: Gilbert–Elliott bursty loss and delay jitter."""

import random

import pytest

from repro.faults.models import GEParams, GilbertElliott, JitterParams


# ----------------------------------------------------------------------
# GEParams
# ----------------------------------------------------------------------
def test_ge_params_validation():
    with pytest.raises(ValueError):
        GEParams(good_mean=0.0)
    with pytest.raises(ValueError):
        GEParams(bad_mean=-1.0)
    with pytest.raises(ValueError):
        GEParams(loss_bad=1.5)
    with pytest.raises(ValueError):
        GEParams(loss_good=-0.1)


def test_ge_average_loss_closed_form():
    params = GEParams(good_mean=90.0, bad_mean=10.0, loss_good=0.0, loss_bad=0.3)
    assert params.bad_fraction == pytest.approx(0.1)
    assert params.average_loss == pytest.approx(0.03)


@pytest.mark.parametrize("average", [0.01, 0.03, 0.05])
def test_with_average_hits_requested_rate(average):
    params = GEParams.with_average(average)
    assert params.average_loss == pytest.approx(average)
    # Loss mass is concentrated: the bad state is far lossier than average.
    assert params.loss_bad > 3 * average


def test_with_average_rejects_unreachable_rates():
    # 60% average with bursts covering 10% of time needs loss_bad = 6.0.
    with pytest.raises(ValueError):
        GEParams.with_average(0.6)


# ----------------------------------------------------------------------
# GilbertElliott channel
# ----------------------------------------------------------------------
def test_ge_channel_deterministic_for_equal_seeds():
    params = GEParams.with_average(0.05)
    a = GilbertElliott(params, random.Random(7), now=0.0)
    b = GilbertElliott(params, random.Random(7), now=0.0)
    times = [i * 0.37 for i in range(2000)]
    assert [a.loses(t) for t in times] == [b.loses(t) for t in times]


def test_ge_channel_losses_only_in_bad_state():
    # loss_good = 0: every loss must coincide with the bad state.
    params = GEParams(good_mean=5.0, bad_mean=5.0, loss_good=0.0, loss_bad=0.8)
    chan = GilbertElliott(params, random.Random(3), now=0.0)
    for i in range(5000):
        t = i * 0.1
        if chan.loses(t):
            assert chan.bad


def test_ge_channel_long_run_rate_matches_average():
    params = GEParams.with_average(0.05)
    chan = GilbertElliott(params, random.Random(11), now=0.0)
    n = 200_000
    losses = sum(chan.loses(i * 0.5) for i in range(n))
    assert losses / n == pytest.approx(0.05, rel=0.15)


def test_ge_channel_advances_through_idle_gaps():
    # A link silent during a burst still sees the burst on its next send:
    # the state machine runs in simulated time, not per message.
    params = GEParams(good_mean=1.0, bad_mean=1.0, loss_good=0.0, loss_bad=1.0)
    chan = GilbertElliott(params, random.Random(5), now=0.0)
    chan.advance(10_000.0)
    assert chan._until > 10_000.0


# ----------------------------------------------------------------------
# JitterParams
# ----------------------------------------------------------------------
def test_jitter_validation():
    with pytest.raises(ValueError):
        JitterParams(jitter=-0.1)
    with pytest.raises(ValueError):
        JitterParams(spike_prob=1.5)
    with pytest.raises(ValueError):
        JitterParams(spike_mean=-1.0)


def test_jitter_draw_bounded_without_spikes():
    params = JitterParams(jitter=0.02)
    rng = random.Random(1)
    draws = [params.draw(rng) for _ in range(1000)]
    assert all(0.0 <= d <= 0.02 for d in draws)
    assert max(draws) > 0.01  # actually spreads over the interval


def test_jitter_spikes_add_heavy_tail():
    no_spikes = JitterParams(jitter=0.0, spike_prob=0.0)
    spikes = JitterParams(jitter=0.0, spike_prob=1.0, spike_mean=0.5)
    rng = random.Random(2)
    assert no_spikes.draw(rng) == 0.0
    assert sum(spikes.draw(rng) for _ in range(200)) / 200 == pytest.approx(
        0.5, rel=0.5
    )
