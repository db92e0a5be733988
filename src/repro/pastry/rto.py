"""Per-destination retransmission timers (paper §3.2).

Timeouts are estimated as in TCP (Karn & Partridge / Jacobson: smoothed RTT
plus a variance term, exponential backoff on retransmission) but set more
aggressively than TCP because Pastry can reroute around an unresponsive next
hop instead of waiting for it.  MSPastry seeds estimators from proximity
measurements when available.

Storage note: a node keeps an estimator for every destination it ever
timed, which at paper scale is hundreds of entries per node.  The table
therefore packs each estimator's two floats (srtt, rttvar) into a single
``complex`` — two unboxed C doubles in one 32-byte object — instead of a
Python object with boxed floats (~120 bytes).  The packing is pure storage:
values round-trip bit-for-bit through ``complex(srtt, rttvar)``, and all
arithmetic happens on the extracted floats, so estimates are identical to
the unpacked implementation.  ``srtt = nan`` encodes "no RTT sample yet"
(a measured RTT is always finite, so nan is unambiguous).
"""

from __future__ import annotations

import math
from typing import Dict

from repro.pastry.config import RTO_MAX

#: estimators a node keeps; past it the oldest insertion is evicted
MAX_RTO_ENTRIES = 512


class RttEstimator:
    """Jacobson-style smoothed RTT with an aggressive multiplier.

    Reference implementation of the estimator update rules;
    :class:`RtoTable` applies the same arithmetic to packed storage.
    """

    __slots__ = ("srtt", "rttvar", "rto_min", "rto_max", "variance_weight")

    def __init__(
        self,
        initial_rto: float,
        rto_min: float,
        rto_max: float,
        variance_weight: float = 2.0,
    ) -> None:
        self.srtt = None
        self.rttvar = initial_rto / (1.0 + variance_weight)
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.variance_weight = variance_weight

    def seed(self, rtt: float) -> None:
        """Initialise from an out-of-band measurement (distance probe)."""
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0

    def sample(self, rtt: float) -> None:
        """Fold in a measured round-trip time (Karn rule: acked first try only)."""
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            err = rtt - self.srtt
            self.srtt += 0.125 * err
            self.rttvar += 0.25 * (abs(err) - self.rttvar)

    @property
    def rto(self) -> float:
        if self.srtt is None:
            base = self.rttvar * (1.0 + self.variance_weight)
        else:
            base = self.srtt + self.variance_weight * self.rttvar
        return min(self.rto_max, max(self.rto_min, base))


class RtoTable:
    """Per-destination-address RTT estimators with bounded size, clamped
    to ``[rto_min, RTO_MAX]``."""

    __slots__ = ("initial_rto", "rto_min", "variance_weight", "_table")

    def __init__(self, initial_rto: float, rto_min: float, variance_weight: float) -> None:
        self.initial_rto = initial_rto
        self.rto_min = rto_min
        self.variance_weight = variance_weight
        #: addr -> complex(srtt, rttvar); srtt = nan until the first sample
        self._table: Dict[int, complex] = {}

    def _set(self, addr: int, srtt: float, rttvar: float) -> None:
        if addr not in self._table and len(self._table) >= MAX_RTO_ENTRIES:
            # Evict the oldest insertion (dicts preserve insertion order).
            self._table.pop(next(iter(self._table)))
        self._table[addr] = complex(srtt, rttvar)

    # ``rto`` and ``sample`` run once per forwarded message and once per ack,
    # so they spell ``isnan``, ``min``/``max`` and ``abs`` as comparisons —
    # with the same results bit for bit, :class:`RttEstimator` being the
    # reference (``tests/test_rto.py``).
    def rto(self, addr: int) -> float:
        table = self._table
        if addr not in table:
            return self.initial_rto
        entry = table[addr]
        srtt = entry.real
        if srtt != srtt:  # nan: no sample yet
            base = entry.imag * (1.0 + self.variance_weight)
        else:
            base = srtt + self.variance_weight * entry.imag
        floored = base if base > self.rto_min else self.rto_min
        return floored if floored < RTO_MAX else RTO_MAX

    def sample(self, addr: int, rtt: float) -> None:
        table = self._table
        if addr in table:
            entry = table[addr]
            srtt = entry.real
            if srtt == srtt:  # not nan: there is an estimate to fold into
                rttvar = entry.imag
                err = rtt - srtt
                # 0.0 - err, not -err: abs(0.0) is +0.0
                deviation = err if err > 0.0 else 0.0 - err
                table[addr] = complex(
                    srtt + 0.125 * err, rttvar + 0.25 * (deviation - rttvar)
                )
                return
        self._set(addr, rtt, rtt / 2.0)

    def seed(self, addr: int, rtt: float) -> None:
        entry = self._table.get(addr)
        if entry is None:
            self._set(addr, rtt, rtt / 2.0)
        elif math.isnan(entry.real):
            self._table[addr] = complex(rtt, rtt / 2.0)
