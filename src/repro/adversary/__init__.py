"""Byzantine node behavior models, scheduled like any other fault.

The paper evaluates MSPastry under *benign* failures (crashes, loss,
churn); this package extends the dependability story to *Byzantine*
behavior — where structured overlays actually break in deployment, because
consistent routing concentrates trust in the O(log N) nodes on each path.

Two layers:

* :mod:`~repro.adversary.behaviors` — composable per-node behavior
  overlays (:class:`AdversaryParams` knobs, :data:`BEHAVIORS` presets,
  :class:`ActiveAdversary` hooked into ``MSPastryNode._on_message``),
* :mod:`~repro.adversary.fault` — :class:`AdversaryFault`, scheduling
  compromise through the existing ``FaultSchedule`` machinery so attacks
  compose with partitions, bursty loss and gray failures.

The ``attacks`` experiment (``repro run attacks``) publishes the
attack-coverage table built on these pieces; the overlay fuzzer
(``tests/test_overlay_fuzz.py``) switches :class:`AdversaryFault` on and
off among its other rules.
"""

from repro.adversary.behaviors import BEHAVIORS, ActiveAdversary, AdversaryParams
from repro.adversary.fault import AdversaryFault

__all__ = [
    "AdversaryFault",
    "AdversaryParams",
    "ActiveAdversary",
    "BEHAVIORS",
]
