"""Fixture-driven tests: every detlint rule against triggering and
non-triggering snippets.

Fixtures are parsed as if they lived at a given path inside the repo, so
the per-package scoping (sim code vs harness vs CLI) is exercised too.
"""

import re
from pathlib import Path

import pytest

import repro.analysis.runner  # noqa: F401  (registers the rules)
from repro.analysis.core import REGISTRY, FileContext, check_file

SIM_PATH = "src/repro/sim/fixture.py"
ANY_PATH = "src/repro/fixture.py"


def lint_snippet(source, path=ANY_PATH, select=None):
    ctx = FileContext.parse(path, source)
    rules = REGISTRY.rules()
    if select:
        rules = [r for r in rules if r.code in select]
    return [f.code for f in check_file(ctx, rules)]


def test_registry_has_all_advertised_rules():
    assert REGISTRY.codes() == [
        "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
        "HARN001", "SIM001", "SIM002",
    ]


def test_readme_table_names_exactly_the_registered_rules():
    """Doc drift: the static-analysis table in README has one row per
    registered rule code, no more and no fewer."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Linting & static analysis")[1].split("\n## ")[0]
    rows = re.findall(r"^\| ([A-Z]+\d{3}) \|", section, flags=re.M)
    assert sorted(rows) == REGISTRY.codes()


def test_rule_metadata_complete():
    for rule in REGISTRY.rules():
        assert rule.name and rule.description
        assert rule.severity in ("warning", "error")
        if rule.exempt:
            assert rule.exempt_reason


# ----------------------------------------------------------------------
# DET001 — no global random
# ----------------------------------------------------------------------
@pytest.mark.parametrize("snippet", [
    "import random\nx = random.random()\n",
    "import random\nx = random.choice([1, 2])\n",
    "import random\nrandom.seed(42)\n",
    "import random\nr = random.Random()\n",       # unseeded
    "import random\nr = random.SystemRandom(1)\n",
    "from random import shuffle\nshuffle([1, 2])\n",
])
def test_det001_triggers(snippet):
    assert "DET001" in lint_snippet(snippet)


@pytest.mark.parametrize("snippet", [
    "import random\nr = random.Random(42)\n",     # seeded: fine
    "def f(rng):\n    return rng.choice([1, 2])\n",
    "import random\n\ndef f(rng: random.Random):\n    return rng.random()\n",
])
def test_det001_clean(snippet):
    assert "DET001" not in lint_snippet(snippet)


# ----------------------------------------------------------------------
# DET002 — no wall clock in sim code
# ----------------------------------------------------------------------
@pytest.mark.parametrize("snippet", [
    "import time\nt = time.time()\n",
    "import time\nt = time.monotonic()\n",
    "import time\nt = time.perf_counter()\n",
    "import datetime\nt = datetime.datetime.now()\n",
    "from time import time\nt = time()\n",
    "from time import monotonic as clock\nt = clock()\n",
])
def test_det002_triggers_in_sim_code(snippet):
    assert "DET002" in lint_snippet(snippet, path=SIM_PATH)


@pytest.mark.parametrize("path", [
    "src/repro/cli.py",            # user-facing timing
    "src/repro/harness/executor.py",  # real process babysitting
])
def test_det002_allowlisted_paths(path):
    assert "DET002" not in lint_snippet("import time\nt = time.time()\n",
                                        path=path)


def test_det002_does_not_apply_outside_sim_packages():
    assert "DET002" not in lint_snippet("import time\nt = time.time()\n",
                                        path="src/repro/experiments/x.py")


# ----------------------------------------------------------------------
# DET003 — no unordered iteration into ordering-sensitive sinks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("snippet", [
    # set literal into list-building loop
    "def f(out):\n    s = {3, 1}\n    for v in s:\n        out.append(v)\n",
    # set() call, loop schedules events
    "def f(sim):\n    s = set([1, 2])\n    for v in s:\n"
    "        sim.schedule(1.0, v)\n",
    # set difference feeding dict setdefault (the invariants.py bug)
    "def f(d, a, b):\n    a = set(a)\n    b = set(b)\n"
    "    for v in a - b:\n        d.setdefault(v, 0)\n",
    # direct materialisation
    "def f():\n    s = {1, 2}\n    return list(s)\n",
    # RNG draw over a set
    "def f(rng):\n    s = frozenset((1, 2))\n    return rng.sample(s, 1)\n",
    # the hierarchical_as.py bug shape: rng.choice filling a set, then
    # iterating it to build edges
    "def f(rng, pool, edges):\n    targets = set()\n"
    "    while len(targets) < 2:\n        targets.add(rng.choice(pool))\n"
    "    for t in targets:\n        edges.append(t)\n",
])
def test_det003_triggers(snippet):
    assert "DET003" in lint_snippet(snippet)


@pytest.mark.parametrize("snippet", [
    # sorted() launders the order
    "def f(out):\n    s = {3, 1}\n    for v in sorted(s):\n        out.append(v)\n",
    # order-insensitive consumers
    "def f():\n    s = {1, 2}\n    return len(s), sum(s), min(s), max(s)\n",
    # membership tests
    "def f(x):\n    s = {1, 2}\n    return x in s\n",
    # iteration without an ordering-sensitive sink (pure reads)
    "def f(s):\n    s = set(s)\n    total = 0\n    for v in s:\n"
    "        total += v\n    return total\n",
    # lists are ordered: iterating them is always fine
    "def f(out):\n    s = [3, 1]\n    for v in s:\n        out.append(v)\n",
    # name rebound from set to sorted list
    "def f(out):\n    s = {3, 1}\n    s = sorted(s)\n    for v in s:\n"
    "        out.append(v)\n",
])
def test_det003_clean(snippet):
    assert "DET003" not in lint_snippet(snippet)


# ----------------------------------------------------------------------
# DET004 — mutable defaults
# ----------------------------------------------------------------------
def test_det004_triggers_per_argument():
    codes = lint_snippet("def f(a=[], b={}, c=set(), d=dict()):\n    pass\n")
    assert codes.count("DET004") == 4


@pytest.mark.parametrize("snippet", [
    "def f(a=None, b=(), c=frozenset(), d=0, e=''):\n    pass\n",
    "def f(*, a=None):\n    pass\n",
])
def test_det004_clean(snippet):
    assert "DET004" not in lint_snippet(snippet)


def test_det004_kwonly_mutable_default():
    assert "DET004" in lint_snippet("def f(*, a=[]):\n    pass\n")


# ----------------------------------------------------------------------
# DET005 — ambient process state in sim code
# ----------------------------------------------------------------------
@pytest.mark.parametrize("snippet", [
    "import os\nv = os.environ['X']\n",
    "import os\nv = os.environ.get('X')\n",
    "import os\nv = os.getenv('X')\n",
    "import os\nv = os.urandom(8)\n",
    "import uuid\nv = uuid.uuid4()\n",
])
def test_det005_triggers_in_sim_code(snippet):
    assert "DET005" in lint_snippet(snippet, path=SIM_PATH)


def test_det005_allowlisted_in_harness():
    assert "DET005" not in lint_snippet("import os\nv = os.getenv('X')\n",
                                        path="src/repro/harness/executor.py")


# ----------------------------------------------------------------------
# SIM001 — blocking I/O in the event-driven core
# ----------------------------------------------------------------------
@pytest.mark.parametrize("snippet", [
    "import time\ndef h():\n    time.sleep(0.1)\n",
    "def h(p):\n    return open(p).read()\n",
    "import subprocess\ndef h():\n    subprocess.run(['ls'])\n",
])
def test_sim001_triggers_in_core(snippet):
    assert "SIM001" in lint_snippet(snippet, path="src/repro/pastry/fixture.py")


def test_sim001_traces_may_do_io():
    # trace loading is pre-simulation file I/O by design
    assert "SIM001" not in lint_snippet(
        "def load(p):\n    return open(p).read()\n",
        path="src/repro/traces/io.py")


# ----------------------------------------------------------------------
# SIM002 — float equality in metrics/invariant code
# ----------------------------------------------------------------------
METRICS_PATH = "src/repro/metrics/fixture.py"


@pytest.mark.parametrize("snippet", [
    "def f(x):\n    return x == 0.5\n",
    "def f(x):\n    return 1.0 != x\n",
    "def f(x):\n    return x == -0.25\n",
])
def test_sim002_triggers(snippet):
    assert "SIM002" in lint_snippet(snippet, path=METRICS_PATH)


@pytest.mark.parametrize("snippet", [
    "def f(n):\n    return n == 0\n",           # int comparison
    "def f(x):\n    return x >= 0.5\n",          # inequality is fine
    "import math\ndef f(x):\n    return math.isclose(x, 0.5)\n",
])
def test_sim002_clean(snippet):
    assert "SIM002" not in lint_snippet(snippet, path=METRICS_PATH)


def test_sim002_scoped_to_metrics_and_invariants():
    snippet = "def f(x):\n    return x == 0.5\n"
    assert "SIM002" not in lint_snippet(snippet, path=SIM_PATH)
    assert "SIM002" in lint_snippet(
        snippet, path="src/repro/overlay/invariants.py")


# ----------------------------------------------------------------------
# HARN001 — picklable multiprocessing workers
# ----------------------------------------------------------------------
HARNESS_PATH = "src/repro/harness/fixture.py"


@pytest.mark.parametrize("snippet", [
    # lambda target
    "def go(ctx):\n    ctx.Process(target=lambda: 1).start()\n",
    # nested function target
    "def go(ctx):\n    def w():\n        pass\n"
    "    ctx.Process(target=w).start()\n",
    # bound method into a pool
    "class A:\n    def go(self, pool, jobs):\n"
    "        pool.map(self.work, jobs)\n",
])
def test_harn001_triggers(snippet):
    assert "HARN001" in lint_snippet(snippet, path=HARNESS_PATH)


@pytest.mark.parametrize("snippet", [
    "def w():\n    pass\n\ndef go(ctx):\n    ctx.Process(target=w).start()\n",
    "def w(x):\n    pass\n\ndef go(pool, jobs):\n    pool.map(w, jobs)\n",
])
def test_harn001_clean(snippet):
    assert "HARN001" not in lint_snippet(snippet, path=HARNESS_PATH)


def test_harn001_scoped_to_harness():
    snippet = "def go(ctx):\n    ctx.Process(target=lambda: 1).start()\n"
    assert "HARN001" not in lint_snippet(snippet, path=SIM_PATH)


# ----------------------------------------------------------------------
# Cross-cutting
# ----------------------------------------------------------------------
def test_findings_carry_location_and_line_text():
    ctx = FileContext.parse(SIM_PATH, "import time\nt = time.time()\n")
    findings = check_file(ctx, REGISTRY.rules())
    assert len(findings) == 1
    f = findings[0]
    assert f.line == 2
    assert f.line_text == "t = time.time()"
    assert f.location() == f"{SIM_PATH}:2:4"


def test_syntax_error_reported_not_raised(tmp_path):
    from repro.analysis import lint_paths
    bad = tmp_path / "bad.py"
    bad.write_text("def f(:\n")
    report = lint_paths([bad], root=tmp_path)
    assert [f.code for f in report.findings] == ["LINT001"]
    assert report.failed


# ----------------------------------------------------------------------
# DET006 — no real-IO imports in sim code
# ----------------------------------------------------------------------
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
    assert "DET006" in lint_snippet(snippet, path=SIM_PATH)


@pytest.mark.parametrize("snippet", [
    "import heapq\n",
    "import struct\n",
    "from repro.sim.engine import Simulator\n",
])
def test_det006_clean_imports(snippet):
    assert "DET006" not in lint_snippet(snippet, path=SIM_PATH)


def test_det006_not_applied_outside_sim_packages():
    assert "DET006" not in lint_snippet("import asyncio\n", path=ANY_PATH)


# ----------------------------------------------------------------------
# Package exemptions — repro.runtime opts out with a documented reason
# ----------------------------------------------------------------------
RUNTIME_PATH = "src/repro/runtime/fixture.py"

#: one snippet that violates every contract runtime is exempt from
_RUNTIME_SNIPPET = (
    "import asyncio\n"
    "import time\n"
    "t = time.monotonic()\n"
)


def test_runtime_package_exempt_from_real_world_rules():
    codes = lint_snippet(_RUNTIME_SNIPPET, path=RUNTIME_PATH)
    assert "DET002" not in codes
    assert "DET006" not in codes


def test_same_snippet_still_flagged_in_policed_packages():
    for path in (SIM_PATH, "src/repro/pastry/fixture.py"):
        codes = lint_snippet(_RUNTIME_SNIPPET, path=path)
        assert "DET002" in codes, path
        assert "DET006" in codes, path


def test_runtime_still_policed_for_global_random():
    snippet = "import random\nx = random.random()\n"
    assert "DET001" in lint_snippet(snippet, path=RUNTIME_PATH)


def test_package_exemption_requires_reason():
    from repro.analysis.core import AnalysisError, ExemptionRegistry
    registry = ExemptionRegistry()
    with pytest.raises(AnalysisError):
        registry.add("repro/foo", ("DET002",), "")
    with pytest.raises(AnalysisError):
        registry.add("repro/foo", (), "codes must be non-empty")
    with pytest.raises(AnalysisError):
        registry.add("", ("DET002",), "package must be non-empty")


def test_package_exemption_scoped_to_listed_codes():
    from repro.analysis.core import ExemptionRegistry
    registry = ExemptionRegistry()
    registry.add("repro/sim", ("DET002",), "test-only carve-out")
    ctx = FileContext.parse(SIM_PATH, "import time\nt = time.time()\n"
                                      "import asyncio\n")
    codes = [f.code for f in check_file(ctx, REGISTRY.rules(),
                                        exemptions=registry)]
    assert "DET002" not in codes   # exempted
    assert "DET006" in codes       # not listed -> still enforced


def test_registered_exemptions_all_carry_reasons():
    from repro.analysis.core import EXEMPTIONS
    exemptions = EXEMPTIONS.all()
    assert any(e.package == "repro/runtime" for e in exemptions)
    for exemption in exemptions:
        assert exemption.reason.strip()
        assert exemption.codes


def test_package_exemption_nested_packages():
    """An exemption on a parent package covers nested subpackages."""
    from repro.analysis.core import ExemptionRegistry
    registry = ExemptionRegistry()
    registry.add("repro/sim", ("DET002",), "test-only carve-out")
    nested = FileContext.parse("src/repro/sim/inner/deep.py",
                               "import time\nt = time.time()\n")
    assert registry.exempts("DET002", nested)
    sibling = FileContext.parse("src/repro/pastry/node.py", "x = 1\n")
    assert not registry.exempts("DET002", sibling)


def test_package_exemption_overlapping_code_lists():
    """Two exemptions may cover the same code for different packages."""
    from repro.analysis.core import ExemptionRegistry
    registry = ExemptionRegistry()
    registry.add("repro/sim", ("DET002", "DET005"), "carve-out one")
    registry.add("repro/faults", ("DET002",), "carve-out two")
    sim = FileContext.parse("src/repro/sim/x.py", "x = 1\n")
    faults = FileContext.parse("src/repro/faults/y.py", "x = 1\n")
    assert registry.exempts("DET002", sim)
    assert registry.exempts("DET002", faults)
    assert registry.exempts("DET005", sim)
    assert not registry.exempts("DET005", faults)


def test_package_exemption_for_nonexistent_package_errors():
    """validate() rejects exemptions that match no scanned file."""
    from repro.analysis.core import AnalysisError, ExemptionRegistry
    registry = ExemptionRegistry()
    registry.add("repro/sim", ("DET002",), "real package")
    registry.add("repro/ghost", ("DET005",), "typo'd package")
    rel_paths = ["src/repro/sim/engine.py", "src/repro/pastry/node.py"]
    with pytest.raises(AnalysisError, match="repro/ghost"):
        registry.validate(rel_paths)
    # drop the offender and validation passes
    clean = ExemptionRegistry()
    clean.add("repro/sim", ("DET002",), "real package")
    clean.validate(rel_paths)


def test_lint_paths_validate_exemptions_flag(tmp_path):
    """The runner surfaces dead exemptions when asked (CI hygiene)."""
    from repro.analysis import AnalysisError, lint_paths
    target = tmp_path / "src" / "repro" / "sim"
    target.mkdir(parents=True)
    (target / "ok.py").write_text("x = 1\n")
    # the registered repro/runtime exemption matches nothing in this tree
    with pytest.raises(AnalysisError, match="repro/runtime"):
        lint_paths([tmp_path / "src"], root=tmp_path,
                   validate_exemptions=True)
    # without the flag, partial trees lint fine
    report = lint_paths([tmp_path / "src"], root=tmp_path)
    assert report.findings == []
