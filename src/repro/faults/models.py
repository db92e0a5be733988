"""Stochastic channel models: bursty loss and delay jitter.

The Gilbert–Elliott model is the standard two-state Markov loss channel:
the link alternates between a *good* state (little or no loss) and a *bad*
state (heavy loss), with exponentially distributed sojourn times.  Unlike
the per-packet formulation common in packet-level simulators, this is the
continuous-time variant — state transitions happen in simulated time, not
per message — so a link that carries no traffic during a burst still loses
the first packet sent inside the burst window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class GEParams:
    """Gilbert–Elliott channel parameters.

    ``good_mean``/``bad_mean`` are the mean sojourn times (seconds) in each
    state; ``loss_good``/``loss_bad`` the per-message loss probabilities
    while in that state.
    """

    good_mean: float = 90.0
    bad_mean: float = 10.0
    loss_good: float = 0.0
    loss_bad: float = 0.3

    def __post_init__(self) -> None:
        if self.good_mean <= 0 or self.bad_mean <= 0:
            raise ValueError("sojourn means must be positive")
        for name in ("loss_good", "loss_bad"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {p}")

    @property
    def bad_fraction(self) -> float:
        """Long-run fraction of time the link spends in the bad state."""
        return self.bad_mean / (self.good_mean + self.bad_mean)

    @property
    def average_loss(self) -> float:
        """Long-run per-message loss rate (for equal-average comparisons)."""
        w = self.bad_fraction
        return w * self.loss_bad + (1.0 - w) * self.loss_good

    @classmethod
    def with_average(cls, average: float) -> "GEParams":
        """Bursty channel whose long-run loss rate equals ``average``.

        The good state (90 s mean) loses nothing; all the loss mass is in
        bursts covering 10% of the time, so a sweep can compare bursty
        against uniform loss at equal average rates.  An average above 0.1
        would need ``loss_bad`` > 1, which ``__post_init__`` rejects.
        """
        return cls(bad_mean=90.0 * 0.1 / (1.0 - 0.1), loss_bad=average / 0.1)


class GilbertElliott:
    """Per-link channel state machine; one instance per directed link."""

    __slots__ = ("params", "_rng", "bad", "_until")

    def __init__(self, params: GEParams, rng: random.Random, now: float) -> None:
        self.params = params
        self._rng = rng
        # Start in the stationary distribution so short runs are unbiased.
        self.bad = rng.random() < params.bad_fraction
        self._until = now + rng.expovariate(
            1.0 / (params.bad_mean if self.bad else params.good_mean)
        )

    def advance(self, now: float) -> None:
        """Play the state machine forward to simulated time ``now``."""
        while now >= self._until:
            self.bad = not self.bad
            mean = self.params.bad_mean if self.bad else self.params.good_mean
            self._until += self._rng.expovariate(1.0 / mean)

    def loses(self, now: float) -> bool:
        """Whether a message sent at ``now`` is lost on this link."""
        self.advance(now)
        p = self.params.loss_bad if self.bad else self.params.loss_good
        return p > 0.0 and self._rng.random() < p


@dataclass(frozen=True, slots=True)
class JitterParams:
    """Delay jitter and latency spikes added on top of the topology delay.

    Every message gets uniform jitter in ``[0, jitter]`` seconds; with
    probability ``spike_prob`` it additionally suffers an exponentially
    distributed spike with mean ``spike_mean`` seconds (queueing bursts,
    route flaps).
    """

    jitter: float = 0.0
    spike_prob: float = 0.0
    spike_mean: float = 0.0

    def __post_init__(self) -> None:
        if self.jitter < 0 or self.spike_mean < 0:
            raise ValueError("jitter and spike_mean must be non-negative")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError(f"spike_prob out of [0, 1]: {self.spike_prob}")

    def draw(self, rng: random.Random) -> float:
        """Extra one-way delay (seconds) for one message."""
        extra = rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0
        if self.spike_prob > 0 and rng.random() < self.spike_prob:
            extra += rng.expovariate(1.0 / self.spike_mean) if self.spike_mean > 0 else 0.0
        return extra
