"""Property test: any fault schedule + a quiet period → the overlay heals.

The fault half of :class:`OverlayFuzz`, searched on its own: no churn and
no hostile datagrams, only lookups, time and timed strikes of every fault
kind.  Once the faults lift and the quiet period has run, the teardown
sweep must report zero standing violations of every kind, mutuality
included: the ring is closed, no dead state lingers, and every lookup is
delivered at its root.
"""

from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

from tests.test_overlay_fuzz import OverlayFuzz


class FaultsOnly(OverlayFuzz):
    UNCHECKED = ()
    join = crash = inject = None  # not rules here


def test_any_fault_schedule_reconverges_after_quiet_period():
    run_state_machine_as_test(FaultsOnly, settings=settings(
        OverlayFuzz.TestCase.settings, max_examples=12))
