"""Helper for recurring protocol timers (heartbeats, probes, maintenance)."""

from __future__ import annotations

from typing import Callable, Optional

from repro.interfaces import Clock, TimerHandle


class PeriodicTask:
    """Fire a callback every ``period`` seconds until stopped; the first
    firing comes after ``start_delay`` (default: one period)."""

    __slots__ = ("_sim", "_period", "_callback", "_handle", "_stopped")

    def __init__(
        self,
        sim: Clock,
        period: float,
        callback: Callable[[], None],
        *,
        start_delay: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive: {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._handle: Optional[TimerHandle] = None
        self._stopped = False
        self._schedule(period if start_delay is None else start_delay)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    def _schedule(self, delay: float) -> None:
        self._handle = self._sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._schedule(self._period)
        self._callback()
