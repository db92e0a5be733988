"""Property test: random churn schedules never break the paper's invariants.

The churn half of :class:`OverlayFuzz`, searched on its own: joins,
crashes, lookups and time, with no faults and no hostile datagrams.  Every
lookup batch must be delivered at the oracle's root; after a quiet period
the surviving ring is closed, no crashed node lingers in a leaf set, and
every lookup is still delivered at its root.
"""

from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

from tests.test_overlay_fuzz import OverlayFuzz


class ChurnOnly(OverlayFuzz):
    strike = inject = None  # not rules here


def test_random_churn_schedule_preserves_invariants():
    run_state_machine_as_test(ChurnOnly, settings=settings(
        OverlayFuzz.TestCase.settings, max_examples=12))
