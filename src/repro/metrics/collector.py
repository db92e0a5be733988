"""Metrics collection for simulation runs.

The collector receives four event streams — message sends and channel
losses (from the transport), lookup issues/deliveries (from the experiment
runner, which checks deliveries against the ground-truth oracle),
active-population changes, and invariant-checker reports — and produces the
paper's four metrics plus the per-message-type control-traffic breakdown of
Figure 4.

Traffic accounting: ``sent_total`` counts *attempted* sends and ``lost_total``
the subset dropped by the channel or fault injection.  Figure 4's
control-traffic numbers (and all ``control_*``/bandwidth metrics here) use
the **sent** counts — the paper measures the bandwidth a node *spends* on
maintenance, and a message lost in the network still cost its sender the
transmission.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.pastry.messages import CONTROL_CATEGORIES

#: a lookup issued at least this many seconds before the run ended is
#: settled: undelivered, it counts as lost rather than in flight
SETTLE_GRACE = 60.0


def _window_counter() -> Dict[int, int]:
    """Inner factory for per-category windowed counts (module level so the
    collector's hot path never constructs closures)."""
    return defaultdict(int)


class ActiveIntegrator:
    """Integrates the active-node count into node-seconds per window."""

    __slots__ = ("window", "count", "_last_time", "node_seconds", "total_node_seconds")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.count = 0
        self._last_time = 0.0
        self.node_seconds: Dict[int, float] = defaultdict(float)
        self.total_node_seconds = 0.0

    def advance(self, now: float) -> None:
        """Accumulate node-seconds up to ``now`` at the current count."""
        t = self._last_time
        while t < now:
            idx = int(t // self.window)
            span = min(now, (idx + 1) * self.window) - t
            self.node_seconds[idx] += self.count * span
            self.total_node_seconds += self.count * span
            t += span
        self._last_time = now

    def change(self, now: float, delta: int) -> None:
        self.advance(now)
        self.count += delta
        if self.count < 0:
            raise ValueError("active count went negative")


@dataclass(slots=True)
class LookupRecord:
    sent_at: float
    delivered_at: Optional[float] = None
    correct: Optional[bool] = None
    hops: int = 0
    dropped: bool = False


@dataclass
class StatsCollector:
    """Counts sends, lookups and joins; computes the paper's metrics."""

    window: float = 600.0
    #: transport timestamps are shifted by -t0 and pre-t0 events ignored,
    #: so a collector can be attached to a transport mid-run (measurement
    #: start) without an adapter in the per-message path.
    t0: float = 0.0

    def __post_init__(self) -> None:
        self.sent_total: Dict[str, int] = defaultdict(int)
        self.lost_total: Dict[str, int] = defaultdict(int)
        self.sent_windowed: Dict[str, Dict[int, int]] = defaultdict(
            _window_counter
        )
        self.lookups: Dict[int, LookupRecord] = {}
        self.join_latencies: List[float] = []
        self.active = ActiveIntegrator(self.window)
        self.rdp_samples: Dict[int, List[float]] = defaultdict(list)
        #: (time, {kind: violation count}) per invariant-checker sweep
        self.invariant_checks: List[Tuple[float, Dict[str, int]]] = []
        self.end_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def on_send(self, msg, src: int, dst: int, now: float) -> None:
        # Hot path: runs for every message sent while stats are attached.
        # Counter bumps on preallocated defaultdicts only — no closures or
        # temporaries beyond the window-bucket index.
        now -= self.t0
        if now < 0.0:
            return  # warm-up traffic is not measured
        category = msg.category
        self.sent_total[category] += 1
        self.sent_windowed[category][int(now // self.window)] += 1

    def on_loss(self, msg, src: int, dst: int, now: float) -> None:
        """An attempted send that the channel (or a fault) dropped."""
        if now >= self.t0:
            self.lost_total[msg.category] += 1

    def on_lookup_issued(self, msg, now: float) -> None:
        self.lookups[msg.msg_id] = LookupRecord(sent_at=now)

    def on_lookup_delivered(
        self, msg, now: float, correct: bool, network_delay: Optional[float]
    ) -> None:
        record = self.lookups.get(msg.msg_id)
        if record is None or record.delivered_at is not None:
            return  # duplicate delivery of a rerouted copy: first one counts
        record.delivered_at = now
        record.correct = correct
        record.hops = msg.hops
        if network_delay is not None and network_delay > 0:
            rdp = (now - record.sent_at) / network_delay
            self.rdp_samples[int(now // self.window)].append(rdp)

    def on_lookup_dropped(self, msg, now: float) -> None:
        record = self.lookups.get(msg.msg_id)
        if record is not None and record.delivered_at is None:
            record.dropped = True

    def on_join(self, latency: float) -> None:
        self.join_latencies.append(latency)

    def on_active_change(self, now: float, delta: int) -> None:
        self.active.change(now, delta)

    def on_invariant_check(self, now: float, counts: Dict[str, int]) -> None:
        """Record one invariant-checker sweep (zero counts included)."""
        self.invariant_checks.append((now, dict(counts)))

    def finish(self, now: float) -> None:
        self.active.advance(now)
        self.end_time = now

    # ------------------------------------------------------------------
    # Aggregate metrics (paper §5.2)
    # ------------------------------------------------------------------
    def _settled_lookups(self) -> List[LookupRecord]:
        """Lookups old enough that non-delivery means loss, not in-flight."""
        horizon = (self.end_time or 0.0) - SETTLE_GRACE
        return [r for r in self.lookups.values() if r.sent_at <= horizon]

    @property
    def n_lookups(self) -> int:
        return len(self.lookups)

    def loss_rate(self) -> float:
        settled = self._settled_lookups()
        if not settled:
            return 0.0
        lost = sum(1 for r in settled if r.delivered_at is None)
        return lost / len(settled)

    def incorrect_delivery_rate(self) -> float:
        settled = self._settled_lookups()
        if not settled:
            return 0.0
        incorrect = sum(1 for r in settled if r.correct is False)
        return incorrect / len(settled)

    def routing_consistency(self) -> float:
        """Fraction of settled lookups delivered to the true oracle owner.

        The adversarial-dependability probe: unlike ``loss_rate`` (which
        counts non-delivery) and ``incorrect_delivery_rate`` (which counts
        misdelivery), this counts *success* — a dropped, blackholed or
        misdelivered lookup all score zero, so an attack cannot trade one
        failure mode for another to look good.  1.0 when nothing settled.
        """
        settled = self._settled_lookups()
        if not settled:
            return 1.0
        correct = sum(1 for r in settled if r.correct is True)
        return correct / len(settled)

    def mean_rdp(self) -> float:
        samples = [s for bucket in self.rdp_samples.values() for s in bucket]
        return sum(samples) / len(samples) if samples else 0.0

    def rdp_percentile(self, q: float) -> float:
        """q-th percentile of per-lookup RDP (robust to clustered-pair tails).

        At reduced overlay scale the *mean* RDP is dominated by lookups
        between co-located nodes whose direct delay is near zero; the median
        reflects the typical stretch and reproduces the paper's topology
        ordering (see EXPERIMENTS.md).
        """
        samples = sorted(s for bucket in self.rdp_samples.values() for s in bucket)
        if not samples:
            return 0.0
        idx = min(int(q * len(samples)), len(samples) - 1)
        return samples[idx]

    def rdp_series(self) -> List[Tuple[float, float]]:
        series = []
        for idx in sorted(self.rdp_samples):
            bucket = self.rdp_samples[idx]
            if bucket:
                series.append(((idx + 0.5) * self.window, sum(bucket) / len(bucket)))
        return series

    def control_messages_total(self) -> int:
        return sum(self.sent_total[c] for c in CONTROL_CATEGORIES)

    def control_traffic_rate(self) -> float:
        """Control messages per second per active node, run-wide."""
        node_seconds = self.active.total_node_seconds
        if node_seconds <= 0:
            return 0.0
        return self.control_messages_total() / node_seconds

    def traffic_series(
        self, categories: Sequence[str] = CONTROL_CATEGORIES
    ) -> List[Tuple[float, float]]:
        """Messages of ``categories`` per second per active node, one point
        per window (Figure 4 and, with lookups, Figure 8)."""
        series = []
        for idx in sorted(self.active.node_seconds):
            node_seconds = self.active.node_seconds[idx]
            if node_seconds <= 0:
                continue
            count = sum(self.sent_windowed[c].get(idx, 0) for c in categories)
            series.append(((idx + 0.5) * self.window, count / node_seconds))
        return series

    def mean_hops(self) -> float:
        delivered = [r for r in self.lookups.values() if r.delivered_at is not None]
        if not delivered:
            return 0.0
        return sum(r.hops for r in delivered) / len(delivered)

    # ------------------------------------------------------------------
    # Invariant violations and reconvergence (fault experiments)
    # ------------------------------------------------------------------
    def violation_series(self) -> List[Tuple[float, int]]:
        """Total standing violations at each invariant-checker sweep."""
        return [(t, sum(counts.values())) for t, counts in self.invariant_checks]

    def standing_violations(self) -> int:
        """Violation count at the most recent sweep (0 when never checked)."""
        if not self.invariant_checks:
            return 0
        return sum(self.invariant_checks[-1][1].values())

    def max_violations(self) -> int:
        return max((n for _, n in self.violation_series()), default=0)

    def reconvergence_time(self, after: float) -> Optional[float]:
        """Seconds from ``after`` until the first all-clear sweep.

        ``after`` is typically a fault's end time; None means the overlay
        never reported a clean sweep again (or was never checked).
        """
        for t, counts in self.invariant_checks:
            if t >= after and sum(counts.values()) == 0:
                return t - after
        return None
