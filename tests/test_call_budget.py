"""What a message and a node cost is pinned by measurement (ROADMAP 4, 10).

One overlay message is ``node.send → Network.send → stats.on_send →
schedule_call → pop → _deliver → _on_message → handler → on_lookup / next_hop
/ forward / acks.track / on_ack / rto``.  Wall time on a shared box moves
± 7%; what that path and a settled node cost is exact, so four readings are
pinned here, and none of them names a function or a class:

- **Calls per delivered message.**  ``sys.setprofile`` counts every ``call``
  event (a Python frame) and ``c_call`` event (a builtin) while 400 seeded
  lookups cross a settled 48-node overlay with a ``StatsCollector`` attached
  (as every ``perf/`` workload has), divided by the messages delivered in
  that window.  A type call — ``float(x)``, ``int(x)``, ``tuple(x)`` — is
  neither event: the count cannot see one.
- **Calls per delivered control message.**  The same count over maintenance
  alone: a settled 64-node overlay, a partition of a quarter of it for 20 s,
  a heal, then 8 crashes and 8 joins over 120 s, no lookups.  Every call is
  filed under the ``StatsCollector`` category of the message being
  delivered, or under ``timers`` outside any delivery.
- **Bytes retained per settled node**, from a ``tracemalloc`` snapshot.
- **No ``__dict__`` where instances multiply.**  Every ``repro`` class with
  two or more instances reachable from a run stopped mid-flight declares its
  layout; the class list is read off the heap, not kept by hand.
"""

import asyncio
import gc
import random
import sys
import tracemalloc
import types
from collections import Counter

from repro.adversary.fault import AdversaryFault
from repro.experiments.scenarios import Scenario
from repro.faults.schedule import (
    BurstLoss, FaultEvent, FaultSchedule, GrayFailures, Partition)
from repro.metrics.collector import StatsCollector
from repro.network.transport import Network
from repro.overlay.utils import build_overlay
from repro.pastry.config import PastryConfig
from repro.pastry.messages import SCHEMA, Message
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import random_nodeid
from repro.runtime.clock import AsyncioClock
from repro.traces.events import ARRIVAL, FAILURE, ChurnTrace, TraceEvent

N_NODES = 48
N_LOOKUPS = 400
#: simulated seconds the lookups get; a hop is 50 ms and a route ≤ 4 hops
WINDOW_S = 1.0

#: Calls per delivered message, seed 42.  CPython 3.11.7 reads 27.95
#: (27,840 calls / 996 messages); the tree this guard was first committed
#: on read 57.98.  Asserted on every interpreter: the 3.11 reading + 1.55
#: calls, about 5%.
BUDGET = 29.5

#: The interpreter the exact pins below were read on; elsewhere they are
#: printed, not asserted.
PINNED_ON = ("cpython", (3, 11))
#: Python frames in the seed-42 window, exactly.  A closure built and called
#: per message is one frame more per message, which the 5% on the total
#: (1.5 calls) would hide.  An intended change re-reads this pin in the same
#: commit and explains the delta.  22,029 → 22,281: ``LeafSet.would_admit``
#: (252 calls from contact-driven recovery) asks ``admits``, the bare
#: admission test.  22,281 → 20,289: the collector counts a send and no
#: longer sizes it (two frames per send: the sizing function and the
#: per-class sizer it called).
FRAMES = 20_289
#: Builtin calls in the same window.  They keep the total's 5% headroom: one
#: costs about a third of a frame (ROADMAP 3(c)).  8,685 → 7,554: ``covers``
#: and ``would_admit`` read the admission window, not ``len`` of the ring.
#: 7,554 → 7,551: re-read when the sizer went (a lookup or an ack is sized
#: without a builtin, so the count did not move with it).
BUILTINS = 7_551
#: Bytes a settled ``build_overlay(48, seed=42)`` retains per node (31,397
#: if the measured build also interned its descriptors).  A per-node table
#: of the 22 bound message handlers reads 33,825.
BYTES_PER_NODE = 31_247
HEADROOM = 1.05

CONTROL_NODES = 64
#: simulated seconds a quarter of the overlay is cut off, then the churn
PARTITION_S = 20.0
CHURN_S = 120.0
#: crashes, and as many joins, spread evenly over ``CHURN_S``
CHURN_EVENTS = 8
#: Calls per delivered control message, seed 42.  CPython 3.11.7 reads
#: 37.34 (818,885 calls / 21,930 messages); the tree this guard was first
#: committed on read 64.61 (1,416,813 calls).  Asserted on every
#: interpreter: the 3.11 reading + 2.16 calls, about 5%.
CONTROL_BUDGET = 39.5
#: Python frames and builtin calls in that window, pinned as above.
#: 471,226 → 425,446 frames and 436,482 → 393,439 builtins: the collector
#: no longer sizes a send (the sizer's frames, and its ``len`` of each
#: list and ``sum`` / ``map`` over each row table).
CONTROL_FRAMES = 425_446
CONTROL_BUILTINS = 393_439


def on_pinned_interpreter():
    return (sys.implementation.name, sys.version_info[:2]) == PINNED_ON


def profiled(run):
    """Run ``run()`` under ``sys.setprofile`` with GC off -> (Counter of
    calls by (file, function), builtins filed under ``<builtin>``; Counter
    of calls by the category of the message being delivered, ``timers``
    outside any delivery; Counter of messages handled by category)."""
    by_function, by_category, handled = Counter(), Counter(), Counter()
    delivering = []  # (frame, category) of each delivery in progress
    deliver, on_message = Network._deliver.__code__, MSPastryNode._on_message.__code__

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is run.__code__:
                return  # the window itself, not what it runs
            if code is deliver:
                delivering.append((frame, frame.f_locals["msg"].category))
            elif code is on_message:
                handled[frame.f_locals["msg"].category] += 1
            by_function[code.co_filename.rpartition("/")[2], code.co_name] += 1
        elif event == "c_call":
            by_function["<builtin>", arg.__qualname__] += 1
        elif event == "return":
            if delivering and delivering[-1][0] is frame:
                delivering.pop()
            return
        else:
            return
        by_category[delivering[-1][1] if delivering else "timers"] += 1

    # A collection runs whatever ``gc.callbacks`` holds (Hypothesis installs
    # one) at a point that depends on every allocation since the last one.
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return by_function, by_category, handled


def split(by_function):
    """-> (frames, builtins) of a ``profiled`` Counter."""
    builtins = sum(count for (where, _), count in by_function.items()
                   if where == "<builtin>")
    return sum(by_function.values()) - builtins, builtins


def count_calls(seed):
    """-> (frames, builtins, messages delivered, Counter of calls by
    (file, function); builtins are filed under ``<builtin>``)."""
    sim, network, nodes = build_overlay(N_NODES, seed=seed)
    network.stats = StatsCollector()
    rng = random.Random(seed)
    lookups = [(nodes[rng.randrange(N_NODES)], rng.getrandbits(128))
               for _ in range(N_LOOKUPS)]
    delivered = set()

    def on_deliver(node, msg):
        delivered.add(msg.msg_id)

    for node in nodes:
        node.on_deliver = on_deliver

    def run():
        for node, key in lookups:
            node.lookup(key)
        sim.run(until=sim.now + WINDOW_S)

    before = network.messages_delivered
    by_function, _, _ = profiled(run)
    assert len(delivered) == N_LOOKUPS, "the lookups did not run to delivery"
    frames, builtins = split(by_function)
    return frames, builtins, network.messages_delivered - before, by_function


def count_control_calls(seed):
    """-> (frames, builtins, control messages delivered, Counter of calls by
    (file, function), Counter of calls by category, Counter of messages
    delivered by category) over the maintenance window."""
    sim, network, nodes = build_overlay(CONTROL_NODES, seed=seed)
    network.stats = StatsCollector()
    t0 = sim.now
    rng = random.Random(seed)
    schedule = FaultSchedule([FaultEvent(Partition(0.25), start=0.0,
                                         duration=PARTITION_S)])
    state = schedule.install(sim, network, rng)
    # Built before the window: a descriptor is interned process-wide, so
    # only the first run in a process would pay for building it.
    config = PastryConfig()
    joiners = [MSPastryNode(sim, network, config, random_nodeid(rng), rng)
               for _ in range(CHURN_EVENTS)]
    live, joined = list(nodes), []
    # ``random.sample`` asks whether its population is a ``Sequence``, which
    # runs Python frames the first time a process asks it about a list.
    rng.sample([], 0)

    def crash(_):  # a settled node: the joiners sit at the end of ``live``
        live.pop(rng.randrange(len(live) - len(joined))).crash()

    def join(_):
        node = joiners[len(joined)]
        node.join(live[rng.randrange(len(live))].descriptor)
        live.append(node)
        joined.append(node)

    gap = CHURN_S / CHURN_EVENTS
    for i in range(CHURN_EVENTS):
        at = PARTITION_S + i * gap
        sim.schedule(at, join, None)
        sim.schedule(at + 0.5 * gap, crash, None)

    def run():
        sim.run(until=t0 + PARTITION_S + CHURN_S)

    before = network.messages_delivered
    by_function, by_category, handled = profiled(run)
    assert state.drops["partition"] > 0, "the partition cut nothing"
    assert len(joined) == CHURN_EVENTS and all(n.active for n in joined), (
        "a joiner did not activate: the window no longer reaches the churn")
    assert handled["lookup"] == 0 and sum(handled.values()) == (
        network.messages_delivered - before)
    frames, builtins = split(by_function)
    return (frames, builtins, sum(handled.values()), by_function,
            by_category, handled)


def top_ten(by_function, messages):
    return "\n".join(
        f"  {count / messages:6.2f}  {where}:{name}"
        for (where, name), count in by_function.most_common(10))


def test_calls_per_delivered_message_stay_within_budget():
    frames, builtins, messages, by_function = count_calls(42)
    per_message = (frames + builtins) / messages
    print(f"{frames} frames + {builtins} builtins = {frames + builtins} calls"
          f" / {messages} messages = {per_message:.2f} per delivered message"
          f" on {sys.implementation.name} {sys.version.split()[0]}")
    ten = f"the ten most called, per message:\n{top_ten(by_function, messages)}"
    assert per_message <= BUDGET, (
        f"{per_message:.2f} calls per delivered message, budget {BUDGET}; {ten}")
    assert builtins <= BUILTINS * HEADROOM, (
        f"{builtins} builtin calls, pinned {BUILTINS} + 5%; {ten}")
    if on_pinned_interpreter():
        assert frames == FRAMES, (
            f"{frames} Python frames, pinned {FRAMES} ({frames - FRAMES:+d},"
            f" {(frames - FRAMES) / messages:+.2f} per message): re-read the"
            f" pin and explain the delta; {ten}")


def test_calls_per_delivered_control_message_stay_within_budget():
    frames, builtins, messages, by_function, by_category, handled = (
        count_control_calls(42))
    per_message = (frames + builtins) / messages
    print(f"{frames} frames + {builtins} builtins = {frames + builtins} calls"
          f" / {messages} control messages = {per_message:.2f} per delivered"
          f" control message on {sys.implementation.name}"
          f" {sys.version.split()[0]}")
    for category, calls in by_category.most_common():
        count = handled[category]
        each = f"{calls / count:7.2f} per message" if count else ""
        print(f"  {category:18} {count:6} delivered {calls:8} calls {each}")
    ten = f"the ten most called, per message:\n{top_ten(by_function, messages)}"
    assert per_message <= CONTROL_BUDGET, (
        f"{per_message:.2f} calls per delivered control message, budget"
        f" {CONTROL_BUDGET}; {ten}")
    assert builtins <= CONTROL_BUILTINS * HEADROOM, (
        f"{builtins} builtin calls, pinned {CONTROL_BUILTINS} + 5%; {ten}")
    if on_pinned_interpreter():
        assert frames == CONTROL_FRAMES, (
            f"{frames} Python frames, pinned {CONTROL_FRAMES}"
            f" ({frames - CONTROL_FRAMES:+d}): re-read the pin and explain the"
            f" delta; {ten}")


def retained_bytes_per_node():
    """-> (bytes per node, snapshot) of a settled overlay.  An untraced
    build comes first: descriptors are interned process-wide, and interning
    them (or growing that table) is not what a node retains."""
    build_overlay(N_NODES, seed=42)
    gc.collect()
    tracemalloc.start()
    try:
        overlay = build_overlay(N_NODES, seed=42)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    total = sum(stat.size for stat in snapshot.statistics("filename"))
    return total / N_NODES, snapshot


def test_bytes_retained_per_settled_node():
    per_node, snapshot = retained_bytes_per_node()
    print(f"{per_node:,.0f} bytes retained per settled node on"
          f" {sys.implementation.name} {sys.version.split()[0]}")
    if on_pinned_interpreter():
        assert per_node <= BYTES_PER_NODE * HEADROOM, (
            f"{per_node:,.0f} bytes per node, pinned {BYTES_PER_NODE:,} + 5%;"
            f" the ten largest allocation sites:\n" + "\n".join(
                f"  {stat}" for stat in snapshot.statistics("lineno")[:10]))


def reachable_instances(*roots):
    """-> Counter of ``repro`` class -> instances reachable from ``roots``
    through ``gc.get_referents``.  Classes, modules and frames are not
    entered (a class-level table is not an instance), and a function only
    through its closure, never its globals."""
    seen, found, stack = set(), Counter(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
            continue
        if isinstance(obj, (type, types.ModuleType, types.FrameType)):
            continue
        if type(obj).__module__.startswith("repro."):
            found[type(obj)] += 1
        stack.extend(gc.get_referents(obj))
    return found


def mid_run_instances():
    """What an ``OverlayRunner`` holds 0.3 s into a join on a 16-node
    overlay, while a node's crash is being repaired, lookups are in flight
    and gray failures, bursty loss and two kinds of adversary are active."""
    trace = ChurnTrace("window", [TraceEvent(0.0, node, ARRIVAL) for node in range(16)]
                       + [TraceEvent(10.0, 16, ARRIVAL), TraceEvent(10.0, 3, FAILURE)],
                       duration=20.0)
    faults = FaultSchedule([
        FaultEvent(fault, start=5.0, duration=10.0)
        for fault in (GrayFailures(0.2), BurstLoss(),
                      AdversaryFault(0.2, mix=("drop", "misroute")))])
    runner = Scenario(seed=42, topology_scale=0.05, lookup_rate=2.0,
                      fault_schedule=faults).build_runner()
    found = Counter()

    def stop_at(sim, t0):  # called at now = 0
        sim.schedule(t0 + 10.3, lambda: found.update(reachable_instances(runner)))

    runner.run(trace, extra_schedule=stop_at)
    return found


def armed_clock_instances():
    """What an ``AsyncioClock`` holds with two timers armed."""
    loop = asyncio.new_event_loop()
    clock = AsyncioClock(loop)
    try:
        for delay in (1.0, 2.0):
            clock.schedule(delay, print)
        return reachable_instances(clock)
    finally:
        clock.close()
        loop.close()


def test_no_class_with_many_live_instances_carries_a_dict():
    """``MSPastryNode`` is the one exception: it is the wiring every
    component hangs off, and the byte pin above counts its ``__dict__``."""
    live = mid_run_instances() + armed_clock_instances()
    assert sum(n for cls, n in live.items() if issubclass(cls, Message)) >= 2, (
        "no message in flight: the window no longer reaches what it is for")
    carriers = {cls.__qualname__: n for cls, n in live.items()
                if n >= 2 and cls.__dictoffset__ and cls is not MSPastryNode}
    assert not carriers, (
        f"instances with a __dict__, by class: {carriers}; declare __slots__"
        f" or @dataclass(slots=True)")
    assert [cls.__name__ for _, cls, _ in SCHEMA if cls.__dictoffset__] == []


def test_the_count_is_deterministic():
    """Two runs in one process are equal, function by function and class by
    class: that is what makes the readings guards and not measurements."""
    first = count_calls(43)
    second = count_calls(43)
    assert first[3] - second[3] == second[3] - first[3] == Counter()
    assert first[:3] == second[:3]
    assert mid_run_instances() == mid_run_instances()
