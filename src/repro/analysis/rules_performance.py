"""Performance rules (HOT001-HOT003): keep the simulation hot path allocation-lean.

The hot-path work (see DESIGN.md §10) removed per-event closure and
lambda construction from the functions that execute once per simulated
event or message.  A closure object allocated a million times per run is
real wall-clock, and CPython cannot hoist it.  HOT001 pins that property:
it is advisory in spirit ("warning") but, like every detlint rule, any
finding fails CI — so a lambda reintroduced into
``Network.send`` shows up in review instead of in the next benchmark run.

The registry below names the per-event functions ``perf/``'s traced runs
attribute time to (``sim.*``, ``transport.*``, ``topology.*``,
``pastry.h.*`` spans, and on the live substrate ``wire.*``, ``udp.*``,
``clock.*``: the per-datagram path is held to what ``sim/`` is held to);
add a function here when it joins the per-event path, remove it when it
leaves.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator

from repro.analysis.core import FileContext, Finding, Rule, register

#: file fragment -> function/method names on the per-event hot path.
HOT_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "repro/sim/engine.py": frozenset(
        {"run", "schedule", "schedule_at", "schedule_call", "cancel",
         "_promote", "_compact"}
    ),
    "repro/network/transport.py": frozenset({"send", "_deliver", "_lose"}),
    "repro/network/base.py": frozenset(
        {"delay", "router_delay", "_router_distances"}
    ),
    "repro/pastry/node.py": frozenset(
        {"send", "_on_message", "consider_for_routing_table"}
    ),
    "repro/pastry/forwarding.py": frozenset(
        {"next_hop", "route", "forward", "on_lookup", "receive_root"}
    ),
    "repro/pastry/acks.py": frozenset({"track", "on_ack"}),
    "repro/pastry/rto.py": frozenset({"rto", "sample"}),
    "repro/pastry/maintenance.py": frozenset({"handle_ls_info"}),
    "repro/pastry/leafset.py": frozenset(
        {"add", "_prune", "members", "covers", "closest_to"}
    ),
    "repro/pastry/routingtable.py": frozenset({"add"}),
    "repro/metrics/collector.py": frozenset({"on_send", "on_loss"}),
    "repro/pastry/messages.py": frozenset({"wire_size"}),
    "repro/adversary/behaviors.py": frozenset(
        {"intercept", "_intercept_lookup", "_intercept_join"}
    ),
    "repro/runtime/wire.py": frozenset(
        {"encode", "decode", "encode_frame", "decode_frame"}
    ),
    "repro/runtime/transport.py": frozenset({"send", "_on_datagram"}),
    "repro/runtime/service.py": frozenset({"_dispatch", "_on_deliver"}),
    "repro/runtime/clock.py": frozenset(
        {"schedule", "schedule_at", "cancel", "_fire", "_rearm", "_compact"}
    ),
}


@register
class NoClosuresOnHotPath(Rule):
    """HOT001: no lambda/closure construction inside hot-path functions."""

    code = "HOT001"
    name = "no-hot-path-closures"
    severity = "warning"
    description = (
        "Functions on the per-event hot path (the ones `perf/`'s traced "
        "runs attribute time to: `sim.*`, `transport.*`, `topology.*`, "
        "`pastry.h.*` spans) run up to millions of times per simulation; "
        "building a lambda or nested function on each call allocates a "
        "fresh code closure every time.  Hoist the callable to module or "
        "class level, or precompute it at configuration time."
    )
    packages = tuple(HOT_FUNCTIONS)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        hot_names = self._hot_names_for(ctx)
        if not hot_names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in hot_names:
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Lambda):
                    yield self.finding(
                        ctx, inner,
                        f"lambda constructed inside hot-path function "
                        f"{node.name}(); hoist it out of the per-event path")
                elif (inner is not node
                      and isinstance(inner,
                                     (ast.FunctionDef, ast.AsyncFunctionDef))):
                    yield self.finding(
                        ctx, inner,
                        f"nested function {inner.name}() defined inside "
                        f"hot-path function {node.name}(); a closure is "
                        f"allocated on every call — hoist it out")

    def _hot_names_for(self, ctx: FileContext) -> FrozenSet[str]:
        names: set = set()
        for fragment, funcs in HOT_FUNCTIONS.items():
            if ctx.in_package(fragment):
                names |= funcs
        return frozenset(names)


#: file fragment -> class names instantiated per message/node/entry, which
#: must declare ``__slots__`` (directly or via ``@dataclass(slots=True)``).
#: ``"*"`` means every class defined in the file (used for the wire-message
#: module, where each class IS a per-message allocation).  A class that
#: deliberately keeps a ``__dict__`` (e.g. a grab-bag stats object created
#: once per run) is not listed here.
HOT_CLASSES: Dict[str, FrozenSet[str]] = {
    "repro/sim/engine.py": frozenset({"EventHandle"}),
    "repro/sim/periodic.py": frozenset({"PeriodicTask"}),
    "repro/pastry/messages.py": frozenset({"*"}),
    "repro/pastry/nodeid.py": frozenset({"NodeDescriptor"}),
    "repro/pastry/leafset.py": frozenset({"LeafSet"}),
    "repro/pastry/routingtable.py": frozenset({"RoutingTable"}),
    "repro/pastry/rto.py": frozenset({"RttEstimator", "RtoTable"}),
    "repro/pastry/acks.py": frozenset({"PendingHop", "HopAckManager"}),
    "repro/pastry/pns.py": frozenset({"_Measurement", "ProximityManager"}),
    "repro/pastry/state.py": frozenset(
        {"_ProbeState", "ProbeTable", "FailureMemory", "RecencyMap"}
    ),
    "repro/pastry/join.py": frozenset({"JoinProtocol"}),
    "repro/pastry/maintenance.py": frozenset({"LeafSetMaintenance"}),
    "repro/pastry/liveness.py": frozenset({"Liveness"}),
    "repro/pastry/forwarding.py": frozenset({"Forwarding"}),
    "repro/faults/state.py": frozenset({"GrayFailure", "FaultState"}),
    "repro/metrics/collector.py": frozenset({"ActiveIntegrator", "LookupRecord"}),
    "repro/adversary/behaviors.py": frozenset(
        {"AdversaryParams", "ActiveAdversary"}
    ),
    "repro/runtime/clock.py": frozenset({"RealTimerHandle"}),
}


def _declares_slots(node: ast.ClassDef) -> bool:
    """Whether a class pins its layout: a ``__slots__`` assignment in the
    body, or a ``@dataclass(..., slots=True)`` decorator."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if (isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"):
                return True
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        func = deco.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if (kw.arg == "slots" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True):
                return True
    return False


@register
class SlotsOnHotClasses(Rule):
    """HOT002: hot-path classes must declare ``__slots__``."""

    code = "HOT002"
    name = "slots-on-hot-classes"
    severity = "warning"
    description = (
        "Classes instantiated per message, per node or per routing-state "
        "entry exist in the hundreds of thousands at paper scale; an "
        "unslotted instance carries a per-object __dict__ (~100 bytes of "
        "pure overhead).  Declare __slots__ or use @dataclass(slots=True); "
        "a class that legitimately needs a __dict__ does not belong in "
        "HOT_CLASSES."
    )
    packages = tuple(HOT_CLASSES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        hot_names = self._hot_names_for(ctx)
        if not hot_names:
            return
        everything = "*" in hot_names
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not everything and node.name not in hot_names:
                continue
            if not _declares_slots(node):
                yield self.finding(
                    ctx, node,
                    f"hot-path class {node.name} has no __slots__ (and no "
                    f"@dataclass(slots=True)); every instance pays for a "
                    f"__dict__ — declare its attribute layout")

    def _hot_names_for(self, ctx: FileContext) -> FrozenSet[str]:
        names: set = set()
        for fragment, classes in HOT_CLASSES.items():
            if ctx.in_package(fragment):
                names |= classes
        return frozenset(names)


@register
class NoNumpyScalarBoxingOnHotPath(Rule):
    """HOT003: no per-event numpy scalar boxing in hot-path functions."""

    code = "HOT003"
    name = "no-hot-path-numpy-boxing"
    severity = "warning"
    description = (
        "Indexing a float64 array one element at a time allocates a boxed "
        "numpy scalar per read, and `.item()`/`float(arr[i])` adds a "
        "second conversion on top — per simulated event that is slower "
        "than a dict or list lookup (the topology copies each Dijkstra "
        "row once into an array('d'), whose reads yield python floats; "
        "see DESIGN.md §10).  The check is syntactic: any `.item()` call, "
        "or `float()` over a subscript, inside a registered hot-path "
        "function.  If the subscripted object is genuinely not a numpy "
        "array, indexing a list or array('d') needs no float() wrapper — "
        "removing it also clears the finding."
    )
    packages = tuple(HOT_FUNCTIONS)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        hot_names = set()
        for fragment, funcs in HOT_FUNCTIONS.items():
            if ctx.in_package(fragment):
                hot_names |= funcs
        if not hot_names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in hot_names:
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                func = inner.func
                if (isinstance(func, ast.Attribute) and func.attr == "item"
                        and not inner.args and not inner.keywords):
                    yield self.finding(
                        ctx, inner,
                        f".item() inside hot-path function {node.name}(): "
                        f"per-event numpy scalar unboxing — copy the "
                        f"row in bulk (array('d', row.tobytes())) outside "
                        f"the loop")
                elif (isinstance(func, ast.Name) and func.id == "float"
                        and len(inner.args) == 1
                        and isinstance(inner.args[0], ast.Subscript)):
                    yield self.finding(
                        ctx, inner,
                        f"float(...[...]) inside hot-path function "
                        f"{node.name}(): boxes a numpy scalar and converts "
                        f"it per event — keep the row as an array('d') "
                        f"or list and index that instead")
