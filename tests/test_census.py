"""Every ``src/repro`` name and option has a caller outside ``tests/``.

An AST pass, no import: a ``def`` or ``class`` under ``src/repro`` must be
referenced (as a name or an attribute) somewhere in ``src/``, ``perf/``,
``examples/`` or ``benchmarks/`` -- its own definition, imports and
``__all__`` do not count -- and each parameter with a default must be passed,
by keyword or by position, in some call of that name there.  A class's call
is its ``__init__``'s, as is ``cls(...)`` inside it and ``super().__init__``
in a subclass.  Matching is by name, so the census is a floor: a method
that shares its name with a used one, a variable and a dataclass field are
not seen.  Dunder methods are called by Python.  ``repro.experiments.*.run``
parameters count as passed: the CLI and sweep specs pass them as
``**kwargs``, which the AST cannot see.

What is found and kept is listed in ``census.json`` (``path -> qualname`` or
``qualname(param)`` ``-> reason``) and compared as an exact set, so the
ledger only shrinks: a new finding fails, and so does an entry that is no
longer found or has no reason.
"""
import ast
import json
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLERS = [p for d in ("src", "perf", "examples", "benchmarks")
           for p in sorted((ROOT / d).rglob("*.py"))]
LEDGER = Path(__file__).with_name("census.json")


def _defs(body, prefix=""):
    """(qualname, node) of module- and class-level defs."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
        if isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")


def _defaulted(node, is_method):
    """{param: positional index in a call, or None if keyword-only}."""
    args = node.args.posonlyargs + node.args.args
    skip = int(is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in node.decorator_list))
    out = {a.arg: i - skip for i, a in enumerate(args)
           if i >= len(args) - len(node.args.defaults)}
    out.update((a.arg, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
               if d is not None)
    return out


class _Uses(ast.NodeVisitor):
    """Names referenced, and per called name the keywords and positions passed.
    A bare name that its own file defines at module level, or imports from
    outside ``repro``, is not a ``repro`` name (``perf/metrics.py``'s
    ``percentile`` is not ``repro.metrics.cdf``'s), so it is keyed
    ``(file or module, name)``."""

    def __init__(self):
        self.names, self.calls, self._classes, self._own = set(), defaultdict(list), [], {}

    def scan(self, path):
        tree = ast.parse(path.read_text(), str(path))
        self._own = {n.name: (str(path), n.name) for n in tree.body if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        self._own.update((a.asname or a.name, (n.module, a.name)) for n in ast.walk(tree)
                         if isinstance(n, ast.ImportFrom) and not n.level
                         and not n.module.startswith("repro") for a in n.names)
        self.visit(tree)

    def visit_ClassDef(self, node):
        for d in node.decorator_list + node.bases + node.keywords:
            self.visit(d)
        self._classes.append(node)
        for child in node.body:
            self.visit(child)
        self._classes.pop()

    def visit_FunctionDef(self, node):  # a def's decorators naming itself are its definition
        for d in node.decorator_list:
            if not (isinstance(d, ast.Attribute) and isinstance(d.value, ast.Name)
                    and d.value.id == node.name):
                self.visit(d)
        for child in [node.args, *node.body] + ([node.returns] if node.returns else []):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(self._own.get(node.id, node.id))

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Assign(self, node):  # ``__all__`` lists names, it does not use them
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Call(self, node):
        func, names = node.func, []
        if isinstance(func, ast.Name):
            names = [self._own.get(func.id, func.id)]
        elif isinstance(func, ast.Attribute):
            names = [func.attr]
        cls = self._classes[-1] if self._classes else None
        if cls is not None and (names == ["cls"] or ast.unparse(func) == "type(self)"):
            names = [cls.name]
        elif cls is not None and ast.unparse(func) == "super().__init__":
            names = [b.id if isinstance(b, ast.Name) else b.attr for b in cls.bases
                     if isinstance(b, (ast.Name, ast.Attribute))]
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        passed = (float("inf") if starred else len(node.args),
                  {k.arg for k in node.keywords if k.arg})
        for name in names:
            self.calls[name].append(passed)
        self.generic_visit(node)


def census():
    """{(path, qualname or qualname(param))} of what no non-test code uses."""
    uses = _Uses()
    for path in CALLERS:
        uses.scan(path)
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for qual, node in _defs(ast.parse(path.read_text(), str(path)).body):
            name = node.name
            if name.startswith("__") and name.endswith("__") and name != "__init__":
                continue
            # what a use names: the def, or for __init__ its class; a
            # module-level one also by the bare name its own file resolves
            scope = qual.removesuffix(".__init__")
            target = scope.rpartition(".")[2]
            keys = [target] + [(str(path), target)] * ("." not in scope)
            if name != "__init__" and not any(k in uses.names for k in keys):
                found.add((rel, qual))
            if isinstance(node, ast.ClassDef) or (
                    rel.startswith("experiments/") and qual == "run"):
                continue
            calls = [call for k in keys for call in uses.calls.get(k, ())]
            for param, pos in _defaulted(node, "." in qual).items():
                if not any(param in kws or (pos is not None and n > pos)
                           for n, kws in calls):
                    found.add((rel, f"{scope}({param})"))
    return found


def test_every_src_name_and_option_has_a_non_test_caller():
    ledger = json.loads(LEDGER.read_text())
    listed = {(path, qual) for path, entries in ledger.items() for qual in entries}
    found = census()
    problems = ([f"unused outside tests/: {p} {q}" for p, q in sorted(found - listed)]
                + [f"listed but now used (drop it): {p} {q}" for p, q in sorted(listed - found)]
                + [f"no reason: {p} {q}" for p, q in sorted(listed)
                   if not str(ledger[p][q]).strip()])
    assert not problems, "\n".join(problems)
