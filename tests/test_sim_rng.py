"""Unit tests for named RNG streams."""

from repro.sim.rng import RngStreams, derive_stream_seed


def test_same_name_returns_same_stream():
    streams = RngStreams(1)
    assert streams.stream("a") is streams.stream("a")


def test_streams_are_deterministic_across_instances():
    a = RngStreams(99).stream("workload")
    b = RngStreams(99).stream("workload")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RngStreams(1)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_master_seeds_differ():
    a = RngStreams(1).stream("x").random()
    b = RngStreams(2).stream("x").random()
    assert a != b


def test_derive_seed_stable():
    streams = RngStreams(42)
    assert streams.derive_seed("abc") == streams.derive_seed("abc")
    assert streams.derive_seed("abc") != streams.derive_seed("abd")


def test_derive_stream_seed_is_the_shared_rule():
    # RngStreams and the sweep harness must agree on seed derivation; the
    # exact value is pinned so artifacts stay comparable across versions.
    assert RngStreams(42).derive_seed("abc") == derive_stream_seed(42, "abc")
    assert derive_stream_seed(42, "abc") == 5503711311217626450
    assert 0 <= derive_stream_seed(0, "") < 2 ** 64
