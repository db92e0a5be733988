"""The two rules on source text, tried on fixture snippets.

Everything else that keeps a run repeatable is checked by running the code
(DESIGN.md §9). Two contracts are about what the source says:

- simulated packages import no event loop, socket, thread or process
  machinery. ``tests/test_import_hygiene.py`` applies
  :func:`imported_roots` to the tree; the snippets below show that it sees
  every spelling of such an import, and only in a simulated package;
- no function has a mutable default argument, which would carry state from
  one call, or one run, into the next. CI's ruff ``B006`` holds the same;
  this check keeps it in the test suite, which does not need ruff.
"""

import ast
from pathlib import Path

import pytest

from tests.test_import_hygiene import REAL_IO, SIMULATED, imported_roots

ROOT = Path(__file__).resolve().parent.parent
SIM_PATH = "src/repro/sim/fixture.py"
ANY_PATH = "src/repro/fixture.py"


def real_io_imports(source, path):
    """The real-IO modules ``source`` imports, if ``path`` is simulated."""
    parts = Path(path).parts
    if parts[parts.index("repro") + 1] not in SIMULATED:
        return []
    return [root for root in imported_roots(ast.parse(source)) if root in REAL_IO]


MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                    ast.SetComp)
MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque",
                 "OrderedDict", "Counter"}


def mutable_defaults(source):
    """The line of each mutable default argument in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for default in node.args.defaults + node.args.kw_defaults:
            if isinstance(default, MUTABLE_LITERALS) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in MUTABLE_CALLS):
                lines.append(default.lineno)
    return lines


@pytest.mark.parametrize("snippet", [
    "import asyncio\n",
    "import socket\n",
    "import threading\n",
    "import subprocess\n",
    "import selectors\n",
    "from asyncio import get_event_loop\n",
    "from socket import socket\n",
    "import asyncio.events\n",
])
def test_det006_triggers_in_sim_code(snippet):
    assert real_io_imports(snippet, SIM_PATH) != []
    assert real_io_imports(f"def f():\n    {snippet}", SIM_PATH) != []


@pytest.mark.parametrize("snippet", [
    "import heapq\n",
    "import struct\n",
    "from repro.sim.engine import Simulator\n",
])
def test_det006_clean_imports(snippet):
    assert real_io_imports(snippet, SIM_PATH) == []


def test_det006_not_applied_outside_sim_packages():
    assert real_io_imports("import asyncio\n", ANY_PATH) == []
    assert real_io_imports("import asyncio\n", "src/repro/runtime/fixture.py") == []


def test_det004_triggers_per_argument():
    source = "def f(a=[], b={}, c=set(), d=dict()):\n    pass\n"
    assert mutable_defaults(source) == [1, 1, 1, 1]


@pytest.mark.parametrize("snippet", [
    "def f(a=None, b=(), c=frozenset(), d=0, e=''):\n    pass\n",
    "def f(*, a=None):\n    pass\n",
])
def test_det004_clean(snippet):
    assert mutable_defaults(snippet) == []


def test_det004_kwonly_mutable_default():
    assert mutable_defaults("def f(*, a=[]):\n    pass\n") == [1]


def test_no_mutable_default_in_the_tree():
    paths = sorted(path for top in ("src", "tests", "perf", "examples", "benchmarks")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 100
    offenders = [f"{path.relative_to(ROOT)}:{line}" for path in paths
                 for line in mutable_defaults(path.read_text())]
    assert offenders == []
