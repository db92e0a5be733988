"""Self-tuning of the active probing period (paper §4.1).

The expected probability of forwarding to a faulty node at one hop is

    Pf(T, mu) = 1 - (1 / (T mu)) (1 - e^(-T mu))

where ``T`` is the maximum fault-detection time and ``mu`` the node failure
rate.  With h expected overlay hops (last hop via leaf set, the rest via the
routing table) the *raw loss rate* — loss absent acks/retransmissions — is

    Lr = 1 - (1 - Pf(Tls + (r+1)To, mu)) (1 - Pf(Trt + (r+1)To, mu))^(h-1)

MSPastry fixes Tls, To and the retry count, and periodically solves this
equation for the routing-table probing period Trt that achieves a target Lr
with minimum probing traffic.  ``N`` is estimated from the leaf-set nodeId
density and ``mu`` from observed failures in the routing state; each node
piggybacks its local estimate and adopts the median across its routing state.
"""

from __future__ import annotations

import math
from collections import deque
from statistics import median
from typing import Deque, Dict

from repro.pastry.config import (
    FAILURE_HISTORY_SIZE,
    MAX_PROBE_RETRIES,
    RT_PROBE_PERIOD_MAX,
    PastryConfig,
)
from repro.pastry.leafset import LeafSet
from repro.pastry.nodeid import ID_SPACE, clockwise_distance


def prob_faulty(detection_time: float, mu: float) -> float:
    """Pf(T, mu): probability a routing-state entry is faulty when used."""
    if mu <= 0.0 or detection_time <= 0.0:
        return 0.0
    x = detection_time * mu
    if x < 1e-8:
        return x / 2.0  # second-order Taylor expansion; avoids cancellation
    return 1.0 - (1.0 - math.exp(-x)) / x


def expected_hops(n_nodes: float, b: int) -> float:
    """Average route length: (2^b - 1)/2^b * log_{2^b} N (at least 1)."""
    if n_nodes <= 1:
        return 1.0
    base = float(1 << b)
    return max(1.0, (base - 1.0) / base * math.log(n_nodes, base))


def raw_loss_rate(
    rt_probe_period: float,
    mu: float,
    n_nodes: float,
    config: PastryConfig,
) -> float:
    """Lr for a given Trt under the current failure rate and overlay size."""
    detect_slack = (MAX_PROBE_RETRIES + 1) * config.probe_timeout
    p_leaf = prob_faulty(config.heartbeat_period + detect_slack, mu)
    p_rt = prob_faulty(rt_probe_period + detect_slack, mu)
    hops = expected_hops(n_nodes, config.b)
    return 1.0 - (1.0 - p_leaf) * (1.0 - p_rt) ** (hops - 1.0)


def solve_rt_probe_period(
    target_lr: float,
    mu: float,
    n_nodes: float,
    config: PastryConfig,
) -> float:
    """Largest Trt achieving Lr <= target (minimum probing traffic).

    Lr is monotonically increasing in Trt, so this is a bisection.  Clamped
    to [(retries+1)·To, RT_PROBE_PERIOD_MAX]; if even the lower bound cannot
    reach the target the lower bound is returned (the paper's Trt floor).
    """
    lo = config.rt_probe_period_min
    hi = RT_PROBE_PERIOD_MAX
    # The leaf-set term and hop count of raw_loss_rate do not depend on the
    # probing period; hoist them so the 64-step bisection only re-evaluates
    # the Trt-dependent factor.  The arithmetic per evaluation is unchanged,
    # so the solved period is bit-identical to calling raw_loss_rate.
    detect_slack = (MAX_PROBE_RETRIES + 1) * config.probe_timeout
    leaf_term = 1.0 - prob_faulty(config.heartbeat_period + detect_slack, mu)
    exp_h = expected_hops(n_nodes, config.b) - 1.0
    if 1.0 - leaf_term * (1.0 - prob_faulty(lo + detect_slack, mu)) ** exp_h >= target_lr:
        return lo
    if 1.0 - leaf_term * (1.0 - prob_faulty(hi + detect_slack, mu)) ** exp_h <= target_lr:
        return hi
    # Inline prob_faulty in the bisection loop (64 evaluations per solve,
    # thousands of solves per simulated hour).  The guard clauses of
    # prob_faulty cannot trigger here — mu > 0 (the lo-bound check above
    # returned otherwise when mu <= 0 gives Lr = 0) and mid + detect_slack
    # > 0 — and the arithmetic is expression-for-expression the same, so
    # the solved period stays bit-identical.
    exp = math.exp
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        x = (mid + detect_slack) * mu
        if x < 1e-8:
            p_rt = x / 2.0
        else:
            p_rt = 1.0 - (1.0 - exp(-x)) / x
        if 1.0 - leaf_term * (1.0 - p_rt) ** exp_h < target_lr:
            lo = mid
        else:
            hi = mid
    return lo


def estimate_overlay_size(leaf_set: LeafSet) -> float:
    """Estimate N from the density of nodeIds in the leaf set (paper [3])."""
    n = len(leaf_set)
    if n == 0:
        return 1.0
    if n < leaf_set.size:
        # The leaf set wraps the whole ring: we see everyone.
        return float(n + 1)
    leftmost, rightmost = leaf_set.leftmost, leaf_set.rightmost
    arc = clockwise_distance(leftmost.id, rightmost.id)
    if arc == 0:
        return float(n + 1)
    # n+1 nodes (members + owner) span `arc`, i.e. n gaps.
    return max(float(n + 1), n * (ID_SPACE / arc))


class FailureRateEstimator:
    """Estimates mu from failures observed in the local routing state.

    A node remembers the times of the last K failures (its own join time is
    inserted when it joins).  With a full history the estimate is
    K / (M * T_kf) where M is the number of unique nodes in the routing
    state and T_kf the span between the first and last remembered failure;
    with k < K failures, the current time stands in for the missing one.
    """

    __slots__ = ("history_size", "_times")

    def __init__(self, history_size: int) -> None:
        if history_size < 1:
            raise ValueError("history_size must be >= 1")
        self.history_size = history_size
        self._times: Deque[float] = deque(maxlen=history_size)

    def start(self, join_time: float) -> None:
        self._times.clear()
        self._times.append(join_time)

    def record_failure(self, time: float) -> None:
        self._times.append(time)

    def estimate(self, now: float, unique_nodes: int) -> float:
        if unique_nodes <= 0 or not self._times:
            return 0.0
        if len(self._times) == self.history_size:
            k = self.history_size
            span = self._times[-1] - self._times[0]
        else:
            k = len(self._times)
            span = now - self._times[0]
        if span <= 0.0:
            return 0.0
        return k / (unique_nodes * span)


class SelfTuner:
    """Per-node self-tuning state: local estimate + median of peers' hints."""

    __slots__ = ("config", "failures", "hints", "local_period", "mu_estimate", "n_estimate")

    def __init__(self, config: PastryConfig) -> None:
        self.config = config
        self.failures = FailureRateEstimator(FAILURE_HISTORY_SIZE)
        #: peer node id -> its reported T^l_rt (positive); the node writes
        #: it from each incoming message's hint
        self.hints: Dict[int, float] = {}
        self.local_period: float = RT_PROBE_PERIOD_MAX
        self.mu_estimate: float = 0.0
        self.n_estimate: float = 1.0

    def recompute_local(self, now: float, leaf_set: LeafSet, unique_nodes: int) -> float:
        self.mu_estimate = self.failures.estimate(now, unique_nodes)
        self.n_estimate = estimate_overlay_size(leaf_set)
        self.local_period = solve_rt_probe_period(
            self.config.target_raw_loss, self.mu_estimate, self.n_estimate, self.config
        )
        return self.local_period

    def forget_peer(self, peer_id: int) -> None:
        self.hints.pop(peer_id, None)

    def current_period(self) -> float:
        values = list(self.hints.values())
        values.append(self.local_period)
        period = median(values)
        return min(
            RT_PROBE_PERIOD_MAX,
            max(self.config.rt_probe_period_min, period),
        )
