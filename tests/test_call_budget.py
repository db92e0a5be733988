"""The per-message pipeline has a call budget (ROADMAP 4).

One overlay message is ``node.send → Network.send → stats.on_send →
schedule_call → pop → _deliver → _on_message → handler → on_lookup / next_hop
/ forward / acks.track / on_ack / rto``.  Wall time on a shared box moves
± 7%; the number of Python-level calls that path makes is exact, so it is the
count this file pins: ``sys.setprofile`` counts every ``call`` and ``c_call``
event while 400 seeded lookups cross a settled 48-node overlay with a
``StatsCollector`` attached (as every ``perf/`` workload has), divided by the
messages delivered in that window.  The role the 500-line guard plays for
``pastry/``: the pipeline cannot quietly regrow.
"""

import gc
import random
import sys
from collections import Counter

from repro.metrics.collector import StatsCollector
from repro.overlay.utils import build_overlay

N_NODES = 48
N_LOOKUPS = 400
#: simulated seconds the lookups get; a hop is 50 ms and a route ≤ 4 hops
WINDOW_S = 1.0

#: Calls per delivered message, seed 42.  CPython 3.11.7 reads 30.84
#: (30,714 calls / 996 messages; seed 43: 28,526 / 963 = 29.62); the tree
#: this guard was first committed on read 57.98.  ``c_call`` counts differ
#: between interpreters (3.12 inlines comprehensions), hence the headroom:
#: the 3.11 reading + 5%.  CI prints the 3.10 and 3.12 readings.
BUDGET = 32.4


def count_calls(seed):
    """-> (calls, messages delivered, Counter of calls by (file, function))."""
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
    by_function = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            by_function[code.co_filename.rpartition("/")[2], code.co_name] += 1
        elif event == "c_call":
            by_function["<builtin>", arg.__qualname__] += 1

    before = network.messages_delivered
    # A collection runs whatever ``gc.callbacks`` holds (Hypothesis installs
    # one) at a point that depends on every allocation since the last one.
    gc.disable()
    sys.setprofile(profile)
    try:
        for node, key in lookups:
            node.lookup(key)
        sim.run(until=sim.now + WINDOW_S)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert len(delivered) == N_LOOKUPS, "the lookups did not run to delivery"
    return (sum(by_function.values()), network.messages_delivered - before,
            by_function)


def top_ten(by_function, messages):
    return "\n".join(
        f"  {count / messages:6.2f}  {where}:{name}"
        for (where, name), count in by_function.most_common(10))


def test_calls_per_delivered_message_stay_within_budget():
    calls, messages, by_function = count_calls(42)
    per_message = calls / messages
    print(f"{calls} calls / {messages} messages = {per_message:.2f} per "
          f"delivered message on CPython {sys.version.split()[0]}")
    assert per_message <= BUDGET, (
        f"{per_message:.2f} calls per delivered message, budget {BUDGET}; "
        f"the ten most called, per message:\n{top_ten(by_function, messages)}")


def test_the_count_is_deterministic():
    """Two runs in one process are equal, function by function: that is what
    makes the number a guard and not a measurement."""
    first = count_calls(43)
    second = count_calls(43)
    assert first[2] - second[2] == second[2] - first[2] == Counter()
    assert first[:2] == second[:2]
