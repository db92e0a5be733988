"""Benchmark-owned tracing: spans at every layer boundary, from outside.

Nothing under ``src/`` knows it is being traced.  The traced child process
builds a :class:`Tracer` and calls :func:`install_sim` or
:func:`install_live`, which hand the run subclasses and proxies of the
layers' *public* entry points:

* constructor arguments where a constructor accepts one (the topology
  proxy, the live clock proxy);
* otherwise module-level names rebound for this process only — the names
  ``overlay.runner``, ``overlay.invariants``, ``pastry.node``,
  ``faults.schedule``, ``network.base``, ``runtime.service`` and
  ``runtime.transport`` look up when they construct a layer.

No ``_private`` attribute of ``src/`` is read or overridden.

A span is (name, start, end, parent, root id); a layer's self time is its
span minus the part its child spans cover.  Every span is folded into a
per-name ``[count, total_ns, self_ns]`` aggregate; full span records are
kept for a deterministic 1-in-256 sample of root events (by ordinal, no RNG
draw) and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, List

now_ns = time.perf_counter_ns

#: keep full span records for every Nth root event
SAMPLE_EVERY = 256
#: the engine's wheel window in simulated seconds (8192 buckets x 1/16 s);
#: an event scheduled further ahead than this lands in the far heap
FAR_HORIZON_S = 512.0


class Tracer:
    """Span aggregation with child-time accounting and sampled records."""

    def __init__(self) -> None:
        #: span name -> [count, total_ns, self_ns]
        self.agg: Dict[str, List[int]] = {}
        #: plain counters taken at the same boundaries as the spans
        self.counts: Counter = Counter()
        #: per open span, the ns its finished children covered; slot 0
        #: collects the total of all top-level spans
        self._covered: List[int] = [0]
        self.roots = 0
        self.records: List[Dict[str, Any]] = []
        self._recording = False
        self._open: List[int] = []
        self._root_id: Any = None

    def reset(self) -> None:
        """Forget everything recorded so far (live: set-up is not traced)."""
        self.agg.clear()
        self.counts.clear()
        self._covered[:] = [0]
        self.roots = 0
        self.records.clear()

    # ------------------------------------------------------------------
    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside a span called ``name``."""
        if self._recording:
            return self._call_recorded(name, fn, args)
        covered = self._covered
        covered.append(0)
        t0 = now_ns()
        try:
            return fn(*args)
        finally:
            dt = now_ns() - t0
            inner = covered.pop()
            covered[-1] += dt
            entry = self.agg.get(name)
            if entry is None:
                entry = self.agg[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - inner

    def root(self, name: str, root_id: Any, fn: Callable[..., Any],
             args: tuple) -> Any:
        """A span that starts a causal chain: a simulator event, a datagram.

        Every :data:`SAMPLE_EVERY`-th root (by ordinal) has its whole span
        tree recorded in full.
        """
        self.roots += 1
        if self.roots % SAMPLE_EVERY or self._recording:
            return self.call(name, fn, *args)
        self._recording = True
        self._root_id = self.roots if root_id is None else root_id
        try:
            return self._call_recorded(name, fn, args)
        finally:
            self._recording = False

    def _call_recorded(self, name: str, fn: Callable[..., Any],
                       args: tuple) -> Any:
        # call() with a span record kept; the accounting is repeated there
        # rather than shared so the unsampled path stays one frame deep
        record = {
            "id": len(self.records),
            "parent": self._open[-1] if self._open else None,
            "root": self._root_id,
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
        }
        self.records.append(record)
        self._open.append(record["id"])
        covered = self._covered
        covered.append(0)
        t0 = record["start_ns"] = now_ns()
        try:
            return fn(*args)
        finally:
            t1 = record["end_ns"] = now_ns()
            dt = t1 - t0
            inner = covered.pop()
            covered[-1] += dt
            self._open.pop()
            entry = self.agg.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - inner

    # ------------------------------------------------------------------
    def total_self_s(self) -> float:
        """Self time over every span == wall time covered by any span."""
        return sum(entry[2] for entry in self.agg.values()) / 1e9

    def write(self, path: str, header: Dict[str, Any]) -> None:
        layers = {
            name: {"count": c, "total_s": t / 1e9, "self_s": s / 1e9}
            for name, (c, t, s) in sorted(self.agg.items())
        }
        with open(path, "w") as fh:
            json.dump({**header, "sample_every": SAMPLE_EVERY,
                       "roots": self.roots, "layers": layers,
                       "counts": dict(sorted(self.counts.items())),
                       "spans": self.records}, fh)
            fh.write("\n")


def _traced(fn: Callable[..., Any], name: str, tracer: Tracer):
    """A method that runs ``fn`` (the base class's) inside a span."""
    call = tracer.call

    def method(self, *args, **kwargs):
        if kwargs:
            return call(name, partial(fn, self, *args, **kwargs))
        return call(name, fn, self, *args)

    method.__name__ = fn.__name__
    return method


def _subclass(base: type, spans: Dict[str, str], tracer: Tracer) -> type:
    """Subclass ``base`` so each public method named in ``spans`` runs in
    the span it maps to."""
    namespace: Dict[str, Any] = {
        method: _traced(getattr(base, method), span, tracer)
        for method, span in spans.items()}
    if "__slots__" in vars(base):
        namespace["__slots__"] = ()
    return type(f"Traced{base.__name__}", (base,), namespace)


# ----------------------------------------------------------------------
# Root labels: which layer owns a scheduled callback
# ----------------------------------------------------------------------
_MODULE_LABELS = (
    ("repro.network.", "transport.deliver"),
    ("repro.pastry.", "pastry.timers"),
    ("repro.overlay.invariants", "overlay.invariant"),
    ("repro.overlay.", "overlay.events"),
    ("repro.faults.", "faults.events"),
    ("repro.adversary.", "faults.events"),
)


class _Labels:
    """Which layer owns a scheduled callback, memoised by owner type.

    A bound method is labelled by the first ``repro`` class in its owner's
    MRO (the benchmark's own subclasses sit in front of it); an owner that
    carries a ``perf_label`` (a periodic task, labelled by the callback it
    wraps) speaks for itself.
    """

    def __init__(self) -> None:
        self._by_type: Dict[Any, str] = {}

    def __call__(self, callback: Callable[..., Any]) -> str:
        owner = getattr(callback, "__self__", None)
        key = callback if owner is None else type(owner)
        label = self._by_type.get(key)
        if label is None:
            label = self._by_type[key] = self._resolve(callback, owner)
        return label or owner.perf_label

    @staticmethod
    def _resolve(callback: Callable[..., Any], owner: Any) -> str:
        if owner is None:
            modules = [getattr(callback, "__module__", None) or ""]
        elif "perf_label" in getattr(type(owner), "__slots__", ()):
            return ""  # per instance: read owner.perf_label
        else:
            modules = [cls.__module__ for cls in type(owner).__mro__]
        for module in modules:
            for prefix, label in _MODULE_LABELS:
                if module.startswith(prefix):
                    return label
        raise ValueError(f"no layer owns scheduled callback {callback!r}")


# ----------------------------------------------------------------------
# Simulation substrate
# ----------------------------------------------------------------------
def install_sim(tracer: Tracer) -> None:
    """Rebind the names the simulated stack constructs its layers from."""
    import repro.faults.schedule as faults_schedule
    import repro.network.base as network_base
    import repro.overlay.invariants as overlay_invariants
    import repro.overlay.runner as overlay_runner
    import repro.pastry.node as pastry_node
    from repro.faults.state import FaultState
    from repro.metrics.collector import StatsCollector
    from repro.network.transport import Network
    from repro.overlay.oracle import Oracle
    from repro.sim.engine import Simulator
    from repro.sim.periodic import PeriodicTask

    call, root, counts = tracer.call, tracer.root, tracer.counts
    labels = _Labels()

    class TracedSimulator(Simulator):
        """Times the five ``schedule*`` entry points and ``run``; every
        scheduled callback fires as a root span labelled by its owner."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self._perf_timer = self._fire_timer  # bound once, not per call
            self._perf_call = self._fire_call

        def _fire_timer(self, callback, args) -> None:
            counts["sim.timers_fired"] += 1
            root(labels(callback), None, callback, args)

        def _fire_call(self, callback, args) -> None:
            root(labels(callback), None, callback, args)

        def schedule(self, delay, callback, *args):
            counts["sim.timers_armed"] += 1
            if delay > FAR_HORIZON_S:
                counts["sim.far_inserts"] += 1
            return call("sim.schedule", super().schedule, delay,
                        self._perf_timer, callback, args)

        def schedule_at(self, time, callback, *args):
            counts["sim.timers_armed"] += 1
            if time - self.now > FAR_HORIZON_S:
                counts["sim.far_inserts"] += 1
            return call("sim.schedule", super().schedule_at, time,
                        self._perf_timer, callback, args)

        def schedule_call(self, delay, callback, *args):
            counts["sim.fire_and_forget"] += 1
            if delay > FAR_HORIZON_S:
                counts["sim.far_inserts"] += 1
            call("sim.schedule", super().schedule_call, delay,
                 self._perf_call, callback, args)

        def schedule_calls(self, delays, callback, args_seq):
            wrapped = [(callback, args) for args in args_seq]
            self._count_batch(wrapped, sum(
                1 for delay in delays if delay > FAR_HORIZON_S))
            call("sim.schedule", super().schedule_calls, delays,
                 self._perf_call, wrapped)

        def schedule_calls_at(self, items):
            fire, horizon = self._perf_call, self.now + FAR_HORIZON_S
            wrapped = [(time, fire, (callback, args))
                       for time, callback, args in items]
            self._count_batch(wrapped, sum(
                1 for item in wrapped if item[0] > horizon))
            call("sim.schedule", super().schedule_calls_at, wrapped)

        @staticmethod
        def _count_batch(wrapped, far: int) -> None:
            counts["sim.batch_calls"] += 1
            counts["sim.batch_items"] += len(wrapped)
            counts["sim.fire_and_forget"] += len(wrapped)
            counts["sim.far_inserts"] += far

        def run(self, until=None, max_events=None):
            return call("sim.run", super().run, until, max_events)

    class TracedPeriodicTask(PeriodicTask):
        """Remembers which layer the wrapped callback belongs to, so its
        ticks are charged there and not to ``sim.periodic``."""

        __slots__ = ("perf_label",)

        def __init__(self, sim, period, callback, **kwargs) -> None:
            self.perf_label = labels(callback)
            super().__init__(sim, period, callback, **kwargs)

    handler_names = _handler_span_names()

    class TracedNetwork(Network):
        """Times ``send``/``send_many`` and wraps each registered node
        handler in a ``pastry.h.<category>`` span."""

        def send(self, src, dst, msg):
            counts["transport.send_calls"] += 1
            if (self.stats is None and self.faults is None
                    and self.loss_rate == 0.0):
                counts["transport.fast_path_sends"] += 1
            call("transport.send", super().send, src, dst, msg)

        def send_many(self, src, dsts, msgs):
            counts["transport.send_many_calls"] += 1
            counts["transport.send_many_msgs"] += len(dsts)
            before = counts["transport.send_calls"]
            call("transport.send_many", super().send_many, src, dsts, msgs)
            if counts["transport.send_calls"] == before and dsts:
                # The batch path never went through send(); count it here.
                counts["transport.batched_sends"] += len(dsts)
                if self.stats is None:  # batch path implies no faults/loss
                    counts["transport.fast_path_sends"] += len(dsts)

        def register(self, address, handler, owner=None):
            def traced_handler(src, msg):
                call(handler_names[msg.category], handler, src, msg)

            super().register(address, traced_handler, owner)

    overlay_runner.Simulator = TracedSimulator
    overlay_runner.Network = TracedNetwork
    overlay_runner.MSPastryNode = traced_node_class(tracer)
    overlay_runner.StatsCollector = _subclass(StatsCollector, dict.fromkeys(
        ["on_send", "on_loss", "on_lookup_issued", "on_lookup_delivered",
         "on_lookup_dropped", "on_join", "on_active_change",
         "on_invariant_check", "finish"], "metrics.intake"), tracer)
    overlay_runner.Oracle = _subclass(Oracle, dict.fromkeys(
        ["node_alive", "node_activated", "node_crashed", "active_nodes",
         "root_of", "is_correct_root", "random_active"], "overlay.oracle"),
        tracer)
    faults_schedule.FaultState = _subclass(FaultState, dict.fromkeys(
        ["filter_send", "filter_deliver", "adjust_delay"], "faults.hook"),
        tracer)
    pastry_node.PeriodicTask = TracedPeriodicTask
    overlay_invariants.PeriodicTask = TracedPeriodicTask

    dijkstra = network_base.dijkstra

    def timed_dijkstra(*args, **kwargs):
        return call("topology.dijkstra", partial(dijkstra, *args, **kwargs))

    network_base.dijkstra = timed_dijkstra


def _handler_span_names() -> Dict[str, str]:
    """``msg.category`` -> the span a handler for it runs in."""
    from repro.pastry import messages

    categories = list(messages.CONTROL_CATEGORIES) + [messages.CAT_LOOKUP]
    return {category: "pastry.h." + category for category in categories}


def traced_node_class(tracer: Tracer) -> type:
    """``MSPastryNode`` with its public entry points in spans, so protocol
    work started by the runner (or the live driver) is charged to
    ``pastry`` and not to whoever called it."""
    from repro.pastry.node import MSPastryNode

    return _subclass(MSPastryNode, {"join": "pastry.o.join",
                                    "route_lookup": "pastry.o.lookup",
                                    "crash": "pastry.o.crash"}, tracer)


def topology_proxy(inner: Any, tracer: Tracer) -> Any:
    """A delegating ``Topology`` that times the four calls the transport,
    the nodes and the runner make into the map."""
    from repro.network.base import Topology

    call, counts = tracer.call, tracer.counts

    class TopologyProxy(Topology):
        name = inner.name

        def attach(self, rng):
            return call("topology.attach", inner.attach, rng)

        def delay(self, a, b):
            return call("topology.delay", inner.delay, a, b)

        def delays_to(self, a, dsts):
            counts["topology.delays_to_items"] += len(dsts)
            return call("topology.delays_to", inner.delays_to, a, dsts)

        def proximity(self, a, b):
            return call("topology.proximity", inner.proximity, a, b)

        def __getattr__(self, attr):
            return getattr(inner, attr)

    return TopologyProxy()


# ----------------------------------------------------------------------
# Live substrate
# ----------------------------------------------------------------------
def install_live(tracer: Tracer) -> None:
    """Rebind the names the live runtime constructs its layers from."""
    import repro.runtime.service as runtime_service
    import repro.runtime.transport as runtime_transport
    from repro.runtime.transport import UdpTransport

    call, root, counts = tracer.call, tracer.root, tracer.counts
    handler_names = _handler_span_names()

    class TracedUdpTransport(UdpTransport):
        def send(self, src, dst, msg):
            call("udp.send", super().send, src, dst, msg)

        def register(self, address, handler, owner=None):
            def traced_handler(src, msg):
                root(handler_names[msg.category],
                     getattr(msg, "msg_id", None), handler, (src, msg))

            super().register(address, traced_handler, owner)

    encode, decode = (runtime_transport.encode_frame,
                      runtime_transport.decode_frame)

    def timed_encode(msg):
        return call("wire.encode", encode, msg)

    def timed_decode(data, off=0):
        return call("wire.decode", decode, data, off)

    runtime_transport.encode_frame = timed_encode
    runtime_transport.decode_frame = timed_decode
    runtime_service.UdpTransport = TracedUdpTransport
    runtime_service.MSPastryNode = traced_node_class(tracer)


def clock_proxy(inner: Any, tracer: Tracer) -> Any:
    """An ``AsyncioClock`` delegate for ``NodeService.start(clock=...)``:
    times arming, and fires every timer as a ``pastry.timers`` root."""
    call, root, counts = tracer.call, tracer.root, tracer.counts

    def fire(callback, args):
        counts["clock.timers_fired"] += 1
        root("pastry.timers", None, callback, args)

    class ClockProxy:
        @property
        def now(self):
            return inner.now

        def schedule(self, delay, callback, *args):
            counts["clock.timers_armed"] += 1
            return call("clock.schedule", inner.schedule, delay, fire,
                        callback, args)

        def schedule_at(self, time, callback, *args):
            counts["clock.timers_armed"] += 1
            return call("clock.schedule", inner.schedule_at, time, fire,
                        callback, args)

        def schedule_call(self, delay, callback, *args):
            counts["clock.timers_armed"] += 1
            call("clock.schedule", inner.schedule_call, delay, fire,
                 callback, args)

        def __getattr__(self, attr):
            return getattr(inner, attr)

    return ClockProxy()
