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

#: the good state: its mean sojourn (seconds) and per-message loss.  Every
#: channel shares it; the bursts carry all the loss
GOOD_MEAN = 90.0
LOSS_GOOD = 0.0


@dataclass(frozen=True, slots=True)
class GEParams:
    """Gilbert–Elliott channel parameters: ``bad_mean`` is the mean sojourn
    time (seconds) in the bad state, ``loss_bad`` its per-message loss
    probability (the good state is ``GOOD_MEAN`` / ``LOSS_GOOD``).
    """

    bad_mean: float = 10.0
    loss_bad: float = 0.3

    def __post_init__(self) -> None:
        if self.bad_mean <= 0:
            raise ValueError("sojourn mean must be positive")
        if not 0.0 <= self.loss_bad <= 1.0:
            raise ValueError(f"loss_bad out of [0, 1]: {self.loss_bad}")

    @property
    def bad_fraction(self) -> float:
        """Long-run fraction of time the link spends in the bad state."""
        return self.bad_mean / (GOOD_MEAN + self.bad_mean)

    @property
    def average_loss(self) -> float:
        """Long-run per-message loss rate (for equal-average comparisons)."""
        w = self.bad_fraction
        return w * self.loss_bad + (1.0 - w) * LOSS_GOOD

    @classmethod
    def with_average(cls, average: float) -> "GEParams":
        """Bursty channel whose long-run loss rate equals ``average``.

        The good state loses nothing; all the loss mass is in bursts
        covering 10% of the time, so a sweep can compare bursty against
        uniform loss at equal average rates.  An average above 0.1 would
        need ``loss_bad`` > 1, which ``__post_init__`` rejects.
        """
        return cls(bad_mean=GOOD_MEAN * 0.1 / (1.0 - 0.1), loss_bad=average / 0.1)


class GilbertElliott:
    """Per-link channel state machine; one instance per directed link."""

    __slots__ = ("params", "_rng", "bad", "_until")

    def __init__(self, params: GEParams, rng: random.Random, now: float) -> None:
        self.params = params
        self._rng = rng
        # Start in the stationary distribution so short runs are unbiased.
        self.bad = rng.random() < params.bad_fraction
        self._until = now + rng.expovariate(
            1.0 / (params.bad_mean if self.bad else GOOD_MEAN)
        )

    def advance(self, now: float) -> None:
        """Play the state machine forward to simulated time ``now``."""
        while now >= self._until:
            self.bad = not self.bad
            mean = self.params.bad_mean if self.bad else GOOD_MEAN
            self._until += self._rng.expovariate(1.0 / mean)

    def loses(self, now: float) -> bool:
        """Whether a message sent at ``now`` is lost on this link."""
        self.advance(now)
        p = self.params.loss_bad if self.bad else LOSS_GOOD
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
