"""Simulation-correctness rules (SIM001, SIM002) and harness rules (HARN001).

These guard properties that are not about randomness but still decide
whether a run's numbers can be trusted: event handlers must not stall the
single-threaded engine on real I/O, metrics must not hinge on exact float
equality, and multiprocessing workers must survive pickling.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.core import FileContext, Finding, Rule, register
from repro.analysis.rules_determinism import SIM_PACKAGES

#: callables that block on the real world; anathema inside event handlers
_BLOCKING_CALLS = {
    "time.sleep", "input", "os.system", "socket.socket",
    "socket.create_connection", "subprocess.run", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output", "subprocess.Popen",
    "urllib.request.urlopen", "requests.get", "requests.post",
}

#: packages where SIM001 applies: the event-driven core.  repro/traces is
#: excluded — trace loading is file I/O by design and runs before the
#: simulation starts, never inside an event handler.
_EVENT_CORE = ("repro/sim", "repro/pastry", "repro/overlay",
               "repro/network", "repro/faults")


@register
class NoBlockingIO(Rule):
    """SIM001: no blocking I/O inside the event-driven simulation core."""

    code = "SIM001"
    name = "no-blocking-io"
    severity = "error"
    description = (
        "The simulator is single-threaded: a blocking call inside an event "
        "handler freezes simulated time for every node at once.  File and "
        "network I/O belong in the harness/CLI layer, before or after the "
        "run."
    )
    packages = _EVENT_CORE

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target is None:
                continue
            if target in _BLOCKING_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{target}() blocks the single-threaded engine; move "
                    f"real I/O out of the simulation core")
            elif target == "open":
                yield self.finding(
                    ctx, node,
                    "open() in the simulation core; load inputs in the "
                    "harness layer and pass data in")


@register
class NoFloatEquality(Rule):
    """SIM002: metrics/invariant code must not compare floats with ==."""

    code = "SIM002"
    name = "no-float-equality"
    severity = "warning"
    description = (
        "Accumulated float arithmetic makes exact equality a coin flip; a "
        "metric or invariant gated on == silently changes meaning with "
        "summation order.  Compare with a tolerance (math.isclose) or "
        "restructure around exact integer counts."
    )
    packages = ("repro/metrics", "repro/overlay/invariants.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, (left, right) in zip(node.ops,
                                         zip(operands, operands[1:])):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                lit = self._float_literal(left) or self._float_literal(right)
                if lit is not None:
                    yield self.finding(
                        ctx, node,
                        f"float compared with == / != (literal {lit}); use "
                        f"math.isclose or an explicit tolerance")

    def _float_literal(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return repr(node.value)
        if (isinstance(node, ast.UnaryOp)
                and isinstance(node.op, (ast.USub, ast.UAdd))):
            return self._float_literal(node.operand)
        return None


@register
class PicklableWorkers(Rule):
    """HARN001: multiprocessing targets must be module-level callables."""

    code = "HARN001"
    name = "picklable-worker"
    severity = "error"
    description = (
        "On spawn-based platforms a Process target / pool function is "
        "pickled by qualified name; lambdas, nested functions and bound "
        "methods either fail outright or silently capture parent state."
    )
    packages = ("repro/harness",)

    _POOL_METHODS = {"apply", "apply_async", "map", "map_async", "imap",
                     "imap_unordered", "starmap", "starmap_async", "submit"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        nested: Set[str] = self._nested_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            candidate = self._worker_argument(node)
            if candidate is None:
                continue
            problem = self._problem_with(candidate, nested)
            if problem:
                yield self.finding(
                    ctx, candidate,
                    f"multiprocessing worker is {problem}; use a "
                    f"module-level function so it survives pickling")

    def _worker_argument(self, call: ast.Call) -> Optional[ast.AST]:
        fn = call.func
        if isinstance(fn, ast.Attribute):
            if fn.attr == "Process":
                for kw in call.keywords:
                    if kw.arg == "target":
                        return kw.value
                return None
            if fn.attr in self._POOL_METHODS and call.args:
                return call.args[0]
        elif isinstance(fn, ast.Name) and fn.id == "Process":
            for kw in call.keywords:
                if kw.arg == "target":
                    return kw.value
        return None

    def _nested_function_names(self, tree: ast.Module) -> Set[str]:
        nested: Set[str] = set()
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(inner.name)
        return nested

    def _problem_with(self, node: ast.AST, nested: Set[str]) -> Optional[str]:
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name) and node.id in nested:
            return f"the nested function {node.id!r}"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return "a bound method"
        return None
