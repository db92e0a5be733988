"""Determinism is checked by running the code.

The poisoned differential re-runs the twelve digest-pinned tiny experiments
of ``tests/test_experiments.py`` in two fresh interpreters at once, under
``PYTHONHASHSEED`` 1 and 2, with every ambient source of nondeterminism
poisoned: the global ``random`` functions, the wall clocks and ``sleep``,
``os.environ`` and friends, ``uuid``/``secrets``, files, sockets and
subprocesses.  Both must reproduce every pin.  CPython seeds the hashes of
``str`` and ``bytes`` but not of ``int``, so the hash seeds move the order
of ``str``-keyed sets only; an ``int``-set order hazard is caught as a
behaviour change, by a pin or by one of the same-seed regressions below.

The regressions pin what earlier fixes restored: two constructions or
runs from the same seed are identical, element for element.  The hazards were iteration over unordered sets feeding
ordering-sensitive sinks (edge lists, RNG draw order, dict insertion order).
"""

import json
import os
import random
import subprocess
import sys

import repro
from repro.faults.schedule import FaultEvent, FaultSchedule, GrayFailures, Partition
from repro.network.hierarchical_as import HierarchicalASTopology
from repro.network.simple import UniformDelayTopology
from repro.overlay.invariants import InvariantChecker
from repro.overlay.oracle import Oracle
from repro.overlay.runner import OverlayRunner
from repro.pastry.config import PastryConfig
from repro.sim.rng import RngStreams
from repro.traces.synthetic import generate_poisson_trace
from tests.test_experiments import PINNED, digest


def _mercator_signature(seed, n_as=12, routers_per_as=4, attached=10, probes=40):
    """Everything observable about a generated Mercator topology."""
    topo = HierarchicalASTopology(random.Random(seed), n_as=n_as,
                                  routers_per_as=routers_per_as)
    attach_rng = random.Random(seed + 1)
    endpoints = [topo.attach(attach_rng) for _ in range(attached)]
    probe_rng = random.Random(seed + 2)
    pairs = [(probe_rng.randrange(attached), probe_rng.randrange(attached))
             for _ in range(probes)]
    return (
        topo.n_routers,
        tuple(topo._router_as),
        tuple(sorted(topo._gateway.items())),
        tuple(endpoints),
        tuple(topo.hops(a, b) for a, b in pairs),
        tuple(topo.delay(a, b) for a, b in pairs),
    )


def test_mercator_topology_identical_across_builds():
    """hierarchical_as: preferential attachment must not depend on set order."""
    one = _mercator_signature(seed=13)
    two = _mercator_signature(seed=13)
    assert one == two


def test_mercator_different_seeds_differ():
    assert _mercator_signature(seed=13) != _mercator_signature(seed=14)


def _churn_violation_series(seed):
    """Invariant-checker output for a short churned run (same-seed stable)."""
    streams = RngStreams(seed)
    trace = generate_poisson_trace(
        streams.stream("trace"), 24, 600.0, 900.0, name="reg")
    runner = OverlayRunner(
        PastryConfig(leaf_set_size=8),
        topology=UniformDelayTopology(0.05),
        streams=streams,
        lookup_rate=0.0,
        invariant_period=60.0,
    )
    result = runner.run(trace)
    series = tuple(
        (t, tuple(sorted(counts.items())))
        for t, counts in result.stats.invariant_checks
    )
    deaths = tuple(sorted(runner.checker._death_time.items()))
    return series, deaths


def test_invariant_checker_series_identical_across_runs():
    """invariants: death-time bookkeeping must not depend on set-diff order."""
    one = _churn_violation_series(seed=77)
    two = _churn_violation_series(seed=77)
    assert one == two


def test_death_time_insertion_order_is_sorted():
    """The _death_time dict is populated in sorted id order per sweep."""

    class _Sim:
        now = 0.0

        def schedule(self, delay, callback, *args):
            class _H:
                def cancel(self):
                    pass

            return _H()

    class _Node:
        def __init__(self, node_id):
            self.id = node_id

    oracle = Oracle()
    nodes = [_Node(i) for i in (9, 3, 27, 14, 1)]
    for node in nodes:
        oracle.node_alive(node)
    checker = InvariantChecker(_Sim(), oracle, period=1.0)
    checker.stop()
    for node in nodes:  # everyone dies between sweeps
        oracle.node_crashed(node)
    checker._note_deaths()
    assert list(checker._death_time) == sorted(n.id for n in nodes)


def _fault_run_signature(seed):
    """A faults-heavy run reduced to its observable counters."""
    streams = RngStreams(seed)
    trace = generate_poisson_trace(
        streams.stream("trace"), 20, 1200.0, 600.0, name="faults-reg")
    schedule = FaultSchedule([
        FaultEvent(Partition(fraction=0.5), start=60.0, duration=120.0),
        FaultEvent(GrayFailures(fraction=0.2), start=240.0, duration=120.0),
    ])
    runner = OverlayRunner(
        PastryConfig(leaf_set_size=8),
        topology=UniformDelayTopology(0.05),
        streams=streams,
        lookup_rate=0.05,
        fault_schedule=schedule,
    )
    result = runner.run(trace)
    network = runner.network
    return (
        (network.messages_sent, network.messages_lost,
         network.messages_delivered, network.messages_dropped_dead),
        dict(result.extras.get("fault_drops", {})),
        result.final_active,
        round(result.stats.loss_rate(), 12),
    )


def test_fault_injection_identical_across_runs():
    """faults: schedules + fault RNG draws are seed-stable run to run."""
    assert _fault_run_signature(seed=5) == _fault_run_signature(seed=5)


# ----------------------------------------------------------------------
# The poisoned hash-seed differential
# ----------------------------------------------------------------------
SRC = os.path.dirname(os.path.dirname(repro.__file__))
REPO = os.path.dirname(SRC)


class Poisoned(BaseException):
    """An ambient source was read inside a pinned run.  Not an
    ``Exception``, so no handler's ``except Exception`` can swallow it."""


def _poisoned(name):
    def read(*args, **kwargs):
        raise Poisoned(f"{name} called inside a simulated run")
    return read


class _PoisonedEnviron:
    _raise = _poisoned("os.environ")
    __getattr__ = __getitem__ = __contains__ = __iter__ = __len__ = _raise


def poison_ambient():
    """Make every ambient source of nondeterminism raise ``Poisoned``."""
    import builtins
    import secrets
    import socket
    import time
    import uuid

    sources = {
        random: [name for name in random.__all__
                 if getattr(getattr(random, name), "__self__", None) is random._inst],
        os: ["urandom", "getenv", "getpid"],
        uuid: ["uuid1", "uuid4"],
        secrets: secrets.__all__,
        time: ["time", "time_ns", "monotonic", "perf_counter", "process_time",
               "sleep"],
        builtins: ["open"],
        socket: ["socket"],
        subprocess: ["Popen"],
    }
    for module, names in sources.items():
        for name in names:
            setattr(module, name, _poisoned(f"{module.__name__}.{name}"))
    os.environ = _PoisonedEnviron()


def print_pinned_digests_poisoned():
    """The child: import everything a pinned run loads lazily, poison, then
    print each pinned run's digest as JSON."""
    import scipy.sparse.csgraph  # noqa: F401  (a Mercator map imports it on first use)

    poison_ambient()
    print(json.dumps({module.__name__: digest(module, module.run(**kwargs))
                      for module, (kwargs, _) in PINNED.items()}))


def test_pinned_runs_hold_poisoned_under_two_hash_seeds():
    code = ("from tests.test_determinism_regressions import "
            "print_pinned_digests_poisoned as main; main()")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    children = {seed: subprocess.Popen(
        [sys.executable, "-c", code], cwd=REPO, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
    ) for seed in ("1", "2")}
    pins = {module.__name__: pin for module, (_, pin) in PINNED.items()}
    for seed, child in children.items():
        out, err = child.communicate(timeout=600)
        assert child.returncode == 0, f"PYTHONHASHSEED={seed}:\n{err}"
        assert json.loads(out) == pins, f"PYTHONHASHSEED={seed}"
