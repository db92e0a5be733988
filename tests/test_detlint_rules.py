"""Fixture-driven tests: every detlint rule against triggering and
non-triggering snippets.

Fixtures are parsed as if they lived at a given path inside the repo, so
the per-package scoping (sim code vs harness vs CLI) is exercised too.
"""

import pytest

import repro.analysis.runner  # noqa: F401  (registers the rules)
from repro.analysis.core import REGISTRY, FileContext, check_file
from repro.analysis.project import (
    PROJECT_REGISTRY,
    build_project,
    check_project,
)

SIM_PATH = "src/repro/sim/fixture.py"
ANY_PATH = "src/repro/fixture.py"


def lint_snippet(source, path=ANY_PATH, select=None):
    ctx = FileContext.parse(path, source)
    rules = REGISTRY.rules()
    if select:
        rules = [r for r in rules if r.code in select]
    return [f.code for f in check_file(ctx, rules)]


def per_file_codes(files):
    """Every per-file finding across a dict of {path: source} fixtures."""
    out = []
    for path in sorted(files):
        ctx = FileContext.parse(path, files[path])
        out.extend(f.code for f in check_file(ctx, REGISTRY.rules()))
    return out


def project_findings(files, wire_baseline=None):
    """Whole-program findings over a dict of {path: source} fixtures."""
    contexts = [FileContext.parse(path, files[path])
                for path in sorted(files)]
    project = build_project(contexts)
    project.wire_baseline = wire_baseline
    return check_project(project, PROJECT_REGISTRY.rules())


def project_codes(files, wire_baseline=None):
    return [f.code for f in project_findings(files, wire_baseline)]


def test_registry_has_all_advertised_rules():
    assert REGISTRY.codes() == [
        "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
        "HARN001", "HOT001", "HOT002", "HOT003", "SIM001", "SIM002",
    ]
    assert PROJECT_REGISTRY.codes() == [
        "FLOW001", "PAR001", "RNG001", "RNG002", "WIRE001", "WIRE002",
    ]


def test_rule_metadata_complete():
    for rule in REGISTRY.rules() + PROJECT_REGISTRY.rules():
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
# HOT001 — no closures on the hot path
# ----------------------------------------------------------------------
ENGINE_PATH = "src/repro/sim/engine.py"
TRANSPORT_PATH = "src/repro/network/transport.py"


@pytest.mark.parametrize("snippet", [
    "class S:\n    def run(self):\n        f = lambda: 1\n        return f()\n",
    ("class S:\n    def schedule_call(self, d, cb):\n"
     "        def fire():\n            cb()\n        return fire\n"),
])
def test_hot001_triggers_in_hot_functions(snippet):
    assert "HOT001" in lint_snippet(snippet, path=ENGINE_PATH)


@pytest.mark.parametrize("snippet", [
    # lambda in a non-hot function of a hot file is fine
    "class S:\n    def render(self):\n        return (lambda: 1)()\n",
    # hot function without closures is fine
    "class S:\n    def run(self):\n        return 1\n",
])
def test_hot001_clean(snippet):
    assert "HOT001" not in lint_snippet(snippet, path=ENGINE_PATH)


def test_hot001_scoped_to_hot_files():
    snippet = "class S:\n    def run(self):\n        return (lambda: 1)()\n"
    assert "HOT001" not in lint_snippet(snippet, path=ANY_PATH)


def test_hot001_flags_send_in_transport():
    snippet = ("class N:\n    def send(self, m):\n"
               "        self.q.append(lambda: m)\n")
    assert "HOT001" in lint_snippet(snippet, path=TRANSPORT_PATH)


# ----------------------------------------------------------------------
# HOT002 — __slots__ on hot-path classes
# ----------------------------------------------------------------------
RTO_PATH = "src/repro/pastry/rto.py"
MESSAGES_PATH = "src/repro/pastry/messages.py"


def test_hot002_flags_unslotted_hot_class():
    snippet = "class RtoTable:\n    def __init__(self):\n        self.x = 1\n"
    assert "HOT002" in lint_snippet(snippet, path=RTO_PATH)


@pytest.mark.parametrize("snippet", [
    # plain __slots__ assignment
    "class RtoTable:\n    __slots__ = ('x',)\n",
    # annotated __slots__ assignment
    "class RtoTable:\n    __slots__: tuple = ('x',)\n",
    # dataclass with slots=True
    ("from dataclasses import dataclass\n"
     "@dataclass(slots=True)\nclass RtoTable:\n    x: int = 0\n"),
    # a class in a hot file but not in the registry is not checked
    "class Helper:\n    def __init__(self):\n        self.x = 1\n",
])
def test_hot002_clean(snippet):
    assert "HOT002" not in lint_snippet(snippet, path=RTO_PATH)


def test_hot002_dataclass_without_slots_still_flagged():
    snippet = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\nclass RtoTable:\n    x: int = 0\n")
    assert "HOT002" in lint_snippet(snippet, path=RTO_PATH)


def test_hot002_star_registry_checks_every_class():
    """messages.py registers '*': any class defined there is hot."""
    snippet = "class AnythingAtAll:\n    def __init__(self):\n        self.x = 1\n"
    assert "HOT002" in lint_snippet(snippet, path=MESSAGES_PATH)


def test_hot002_scoped_to_registered_files():
    snippet = "class RtoTable:\n    def __init__(self):\n        self.x = 1\n"
    assert "HOT002" not in lint_snippet(snippet, path=ANY_PATH)


def test_hot002_suppressible_with_justification():
    snippet = ("class RtoTable:  # detlint: disable=HOT002 -- HOT002: shim\n"
               "    def __init__(self):\n        self.x = 1\n")
    from repro.analysis.suppress import parse_suppressions
    ctx = FileContext.parse(RTO_PATH, snippet)
    findings = check_file(ctx, REGISTRY.rules())
    assert "HOT002" in [f.code for f in findings]
    suppressions = parse_suppressions(RTO_PATH, snippet)
    kept = [f for f in findings if not suppressions.matches(f)]
    assert "HOT002" not in [f.code for f in kept]


# ----------------------------------------------------------------------
# HOT003 — no per-event numpy scalar boxing on the hot path
# ----------------------------------------------------------------------
BASE_PATH = "src/repro/network/base.py"


@pytest.mark.parametrize("snippet", [
    # float() over a subscript: the classic per-event row read
    ("class T:\n    def delay(self, a, b):\n"
     "        return float(self.row[b])\n"),
    # .item() boxing
    ("class T:\n    def delay(self, a, b):\n"
     "        return self.row[b].item()\n"),
])
def test_hot003_triggers_in_hot_functions(snippet):
    assert "HOT003" in lint_snippet(snippet, path=BASE_PATH)


@pytest.mark.parametrize("snippet", [
    # plain list indexing needs no conversion — the prescribed fix
    ("class T:\n    def delay(self, a, b):\n"
     "        return self.row_list[b] + self.lan\n"),
    # float() over a non-subscript (e.g. a literal) is fine
    ("class T:\n    def delay(self, a, b):\n"
     "        return float('inf')\n"),
    # bulk conversion outside the per-event read is the idiom
    ("class T:\n    def _router_distances(self, router):\n"
     "        return array('d', self.dijkstra(router).tobytes())\n"),
    # .item() in a non-hot function of a hot file is not checked
    ("class T:\n    def summarize(self):\n"
     "        return self.row[0].item()\n"),
])
def test_hot003_clean(snippet):
    assert "HOT003" not in lint_snippet(snippet, path=BASE_PATH)


def test_hot003_scoped_to_registered_files():
    snippet = ("class T:\n    def delay(self, a, b):\n"
               "        return float(self.row[b])\n")
    assert "HOT003" not in lint_snippet(snippet, path=ANY_PATH)


def test_hot_rules_cover_the_shared_enqueue():
    """Every schedule* entry point funnels into _enqueue: it is hot."""
    snippet = ("class S:\n    def _enqueue(self, time, handle, cb, args):\n"
               "        return self.widths[0].item()\n")
    assert "HOT003" in lint_snippet(snippet, path=ENGINE_PATH)
    lam = ("class S:\n    def _enqueue(self, time, handle, cb, args):\n"
           "        return min(self.near, key=lambda e: e[0])\n")
    assert "HOT001" in lint_snippet(lam, path=ENGINE_PATH)


def test_hot_registries_name_only_definitions_that_exist():
    """A renamed or deleted function must leave the registry with it:
    every (file, name) in HOT_FUNCTIONS / HOT_CLASSES resolves to a
    function / class defined in that file."""
    import ast
    from pathlib import Path

    from repro.analysis.rules_performance import HOT_CLASSES, HOT_FUNCTIONS

    src = Path(__file__).resolve().parent.parent / "src"
    kinds = ((HOT_FUNCTIONS, (ast.FunctionDef, ast.AsyncFunctionDef)),
             (HOT_CLASSES, (ast.ClassDef,)))
    missing = []
    for registry, node_types in kinds:
        for fragment, names in registry.items():
            tree = ast.parse((src / fragment).read_text())
            defined = {node.name for node in ast.walk(tree)
                       if isinstance(node, node_types)}
            missing += [(fragment, name) for name in sorted(names - {"*"})
                        if name not in defined]
    assert not missing


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


# ----------------------------------------------------------------------
# Whole-program tier — RNG001/RNG002 (stream aliasing, global Random)
# ----------------------------------------------------------------------
def test_rng001_two_streams_into_one_call_triggers():
    files = {
        "src/repro/sim/consumer.py": "def consume(a, b):\n    return 0\n",
        "src/repro/overlay/driver.py": (
            "from repro.sim.consumer import consume\n"
            "def go(streams):\n"
            "    consume(streams.stream('net'), streams.stream('nodes'))\n"),
    }
    assert "RNG001" in project_codes(files)


def test_rng001_one_stream_per_consumer_is_clean():
    files = {
        "src/repro/sim/consumer.py": (
            "def eat(s):\n    return 0\n\ndef eat2(s):\n    return 0\n"),
        "src/repro/overlay/driver.py": (
            "from repro.sim.consumer import eat, eat2\n"
            "def go(streams):\n"
            "    eat(streams.stream('net'))\n"
            "    eat2(streams.stream('nodes'))\n"),
    }
    assert project_codes(files) == []


def test_rng001_same_stream_across_subsystems_triggers():
    files = {
        "src/repro/sim/a.py": "def eat(s):\n    return 0\n",
        "src/repro/pastry/b.py": "def eat2(s):\n    return 0\n",
        "src/repro/overlay/driver.py": (
            "from repro.sim.a import eat\n"
            "from repro.pastry.b import eat2\n"
            "def go(streams):\n"
            "    shared = streams.stream('x')\n"
            "    eat(shared)\n"
            "    eat2(shared)\n"),
    }
    assert "RNG001" in project_codes(files)


def test_rng001_stream_escaping_to_module_global_triggers():
    files = {
        "src/repro/sim/leak.py": (
            "_CACHE = {}\n"
            "def go(streams):\n"
            "    global _CACHE\n"
            "    _CACHE = streams.stream('x')\n"),
    }
    assert "RNG001" in project_codes(files)


def test_rng001_derived_seeds_are_not_streams():
    """derive_stream_seed yields plain ints; passing them around is the
    *intended* pattern and must not read as aliasing."""
    files = {
        "src/repro/sim/run.py": (
            "import random\n"
            "from repro.sim.rng import derive_stream_seed\n"
            "def go(seed, trial):\n"
            "    s1 = derive_stream_seed(seed, 'gen')\n"
            "    s2 = derive_stream_seed(seed, 'trial')\n"
            "    run_trial(s1, s2)\n"
            "def run_trial(a, b):\n    return a + b\n"),
    }
    assert "RNG001" not in project_codes(files)


def test_rng001_data_drawn_from_stream_travels_freely():
    """Values *drawn from* a stream are data, not the stream: handing a
    generated trace to another subsystem is fine."""
    files = {
        "src/repro/traces/gen.py": "def make_trace(rng):\n    return [1]\n",
        "src/repro/sim/replay.py": "def replay(trace):\n    return len(trace)\n",
        "src/repro/overlay/driver.py": (
            "from repro.traces.gen import make_trace\n"
            "from repro.sim.replay import replay\n"
            "def go(streams):\n"
            "    trace = make_trace(streams.stream('trace'))\n"
            "    replay(trace)\n"),
    }
    assert project_codes(files) == []


def test_rng002_global_random_reachable_from_sim_triggers():
    files = {
        "src/repro/util/shared.py": (
            "import random\n_RNG = random.Random(7)\n"),
        "src/repro/sim/engine.py": (
            "from repro.util.shared import _RNG\n"),
    }
    codes = project_codes(files)
    assert "RNG002" in codes


def test_rng002_unreachable_global_random_is_clean():
    """A global Random in a module sim code never imports is out of
    scope for RNG002 (DET001 still polices its construction per-file)."""
    files = {
        "src/repro/tools/offline.py": (
            "import random\n_RNG = random.Random(7)\n"),
        "src/repro/sim/engine.py": "x = 1\n",
    }
    assert "RNG002" not in project_codes(files)


def test_rng002_seen_through_transitive_imports():
    files = {
        "src/repro/util/shared.py": (
            "import random\n_RNG = random.Random(7)\n"),
        "src/repro/util/middle.py": (
            "from repro.util.shared import _RNG\n"),
        "src/repro/sim/engine.py": (
            "from repro.util.middle import _RNG\n"),
    }
    assert "RNG002" in project_codes(files)


# ----------------------------------------------------------------------
# Whole-program tier — FLOW001 (real-world taint into sim state)
# ----------------------------------------------------------------------
def test_flow001_wallclock_into_sim_constructor_state_triggers():
    files = {
        "src/repro/pastry/node.py": "class Node:\n    pass\n",
        "src/repro/runtime/boot.py": (
            "import time\n"
            "from repro.pastry.node import Node\n"
            "def boot():\n"
            "    n = Node()\n"
            "    n.started = time.time()\n"),
    }
    assert "FLOW001" in project_codes(files)


def test_flow001_wallclock_arg_into_sim_call_triggers():
    files = {
        "src/repro/pastry/node.py": "def on_join(t):\n    return t\n",
        "src/repro/runtime/drive.py": (
            "import time\n"
            "from repro.pastry.node import on_join\n"
            "def drive():\n"
            "    on_join(time.time())\n"),
    }
    assert "FLOW001" in project_codes(files)


def test_flow001_wallclock_kept_in_runtime_is_clean():
    """repro.runtime may use the wall clock freely for its own state."""
    files = {
        "src/repro/runtime/clockkeeper.py": (
            "import time\n"
            "class Keeper:\n"
            "    def tick(self):\n"
            "        self.last = time.time()\n"),
    }
    assert "FLOW001" not in project_codes(files)


def test_flow001_untainted_values_cross_freely():
    files = {
        "src/repro/pastry/node.py": "def on_join(t):\n    return t\n",
        "src/repro/runtime/drive.py": (
            "from repro.pastry.node import on_join\n"
            "def drive(spec):\n"
            "    on_join(spec.seed)\n"),
    }
    assert "FLOW001" not in project_codes(files)


# ----------------------------------------------------------------------
# Whole-program tier — WIRE001/WIRE002 (registry drift, append-only ids)
# ----------------------------------------------------------------------
_WIRE_MESSAGES = (
    "class Message:\n    pass\n"
    "class JoinRequest(Message):\n    pass\n"
    "class JoinReply(Message):\n    pass\n"
)


def test_wire001_missing_registry_entry_triggers():
    files = {
        "src/repro/pastry/messages.py": _WIRE_MESSAGES,
        "src/repro/runtime/wire.py": (
            "from repro.pastry import messages as m\n"
            "_REGISTRY = ((1, m.JoinRequest, ()),)\n"),
    }
    findings = project_findings(
        files, wire_baseline={1: "repro.pastry.messages.JoinRequest"})
    wire = [f for f in findings if f.code == "WIRE001"]
    assert len(wire) == 1
    assert "JoinReply" in wire[0].message


def test_wire001_complete_registry_is_clean():
    files = {
        "src/repro/pastry/messages.py": _WIRE_MESSAGES,
        "src/repro/runtime/wire.py": (
            "from repro.pastry import messages as m\n"
            "_REGISTRY = ((1, m.JoinRequest, ()), (2, m.JoinReply, ()))\n"),
    }
    codes = project_codes(files, wire_baseline={
        1: "repro.pastry.messages.JoinRequest",
        2: "repro.pastry.messages.JoinReply"})
    assert "WIRE001" not in codes
    assert "WIRE002" not in codes


def test_wire001_registry_entry_for_unknown_class_triggers():
    files = {
        "src/repro/pastry/messages.py": _WIRE_MESSAGES,
        "src/repro/runtime/wire.py": (
            "from repro.pastry import messages as m\n"
            "_REGISTRY = ((1, m.JoinRequest, ()), (2, m.JoinReply, ()),\n"
            "             (3, m.Phantom, ()))\n"),
    }
    codes = project_codes(files, wire_baseline={
        1: "repro.pastry.messages.JoinRequest",
        2: "repro.pastry.messages.JoinReply",
        3: "repro.pastry.messages.Phantom"})
    assert "WIRE001" in codes


def test_wire002_removed_id_triggers():
    files = {
        "src/repro/pastry/messages.py": _WIRE_MESSAGES,
        "src/repro/runtime/wire.py": (
            "from repro.pastry import messages as m\n"
            "_REGISTRY = ((1, m.JoinRequest, ()), (2, m.JoinReply, ()))\n"),
    }
    findings = project_findings(files, wire_baseline={
        1: "repro.pastry.messages.JoinRequest",
        2: "repro.pastry.messages.JoinReply",
        3: "repro.pastry.messages.Retired"})
    messages = [f.message for f in findings if f.code == "WIRE002"]
    assert any("removed" in m for m in messages)


def test_wire002_reassigned_id_triggers():
    files = {
        "src/repro/pastry/messages.py": _WIRE_MESSAGES,
        "src/repro/runtime/wire.py": (
            "from repro.pastry import messages as m\n"
            "_REGISTRY = ((1, m.JoinReply, ()), (2, m.JoinRequest, ()))\n"),
    }
    findings = project_findings(files, wire_baseline={
        1: "repro.pastry.messages.JoinRequest",
        2: "repro.pastry.messages.JoinReply"})
    messages = [f.message for f in findings if f.code == "WIRE002"]
    assert any("reassigned" in m for m in messages)


def test_wire002_recycled_id_triggers():
    """A new type must take a fresh id past the baseline maximum."""
    files = {
        "src/repro/pastry/messages.py": (
            _WIRE_MESSAGES + "class Late(Message):\n    pass\n"),
        "src/repro/runtime/wire.py": (
            "from repro.pastry import messages as m\n"
            "_REGISTRY = ((1, m.JoinRequest, ()), (2, m.Late, ()),\n"
            "             (3, m.JoinReply, ()))\n"),
    }
    findings = project_findings(files, wire_baseline={
        1: "repro.pastry.messages.JoinRequest",
        3: "repro.pastry.messages.JoinReply"})
    messages = [f.message for f in findings if f.code == "WIRE002"]
    assert any("retired id space" in m for m in messages)


def test_wire002_appended_id_is_clean():
    files = {
        "src/repro/pastry/messages.py": (
            _WIRE_MESSAGES + "class Late(Message):\n    pass\n"),
        "src/repro/runtime/wire.py": (
            "from repro.pastry import messages as m\n"
            "_REGISTRY = ((1, m.JoinRequest, ()), (2, m.JoinReply, ()),\n"
            "             (3, m.Late, ()))\n"),
    }
    codes = project_codes(files, wire_baseline={
        1: "repro.pastry.messages.JoinRequest",
        2: "repro.pastry.messages.JoinReply"})
    assert "WIRE002" not in codes


def test_wire002_missing_baseline_is_a_warning():
    files = {
        "src/repro/pastry/messages.py": _WIRE_MESSAGES,
        "src/repro/runtime/wire.py": (
            "from repro.pastry import messages as m\n"
            "_REGISTRY = ((1, m.JoinRequest, ()), (2, m.JoinReply, ()))\n"),
    }
    findings = [f for f in project_findings(files, wire_baseline=None)
                if f.code == "WIRE002"]
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert "--write-wire-baseline" in findings[0].message


# ----------------------------------------------------------------------
# Whole-program tier — PAR001 (entry-point purity)
# ----------------------------------------------------------------------
def test_par001_worker_mutating_module_state_triggers():
    files = {
        "src/repro/harness/work.py": (
            "_SEEN = {}\n"
            "def work(job):\n"
            "    _SEEN[job] = 1\n"),
        "src/repro/harness/pool.py": (
            "import multiprocessing as mp\n"
            "from repro.harness.work import work\n"
            "def main(jobs):\n"
            "    ctx = mp.get_context('spawn')\n"
            "    ctx.Process(target=work, args=(jobs,)).start()\n"),
    }
    assert "PAR001" in project_codes(files)


def test_par001_pure_worker_is_clean():
    files = {
        "src/repro/harness/work.py": (
            "def work(job):\n"
            "    local = {}\n"
            "    local[job] = 1\n"
            "    return local\n"),
        "src/repro/harness/pool.py": (
            "import multiprocessing as mp\n"
            "from repro.harness.work import work\n"
            "def main(jobs):\n"
            "    ctx = mp.get_context('spawn')\n"
            "    ctx.Process(target=work, args=(jobs,)).start()\n"),
    }
    assert "PAR001" not in project_codes(files)


def test_par001_pool_map_worker_checked_too():
    files = {
        "src/repro/harness/work.py": (
            "_LOG = []\n"
            "def work(job):\n"
            "    _LOG.append(job)\n"),
        "src/repro/harness/pool.py": (
            "from repro.harness.work import work\n"
            "def main(pool, jobs):\n"
            "    pool.map(work, jobs)\n"),
    }
    assert "PAR001" in project_codes(files)


# ----------------------------------------------------------------------
# Seeded cross-module hazards: bugs the per-file tier provably misses
# ----------------------------------------------------------------------
#: hazard -> (files, expected project-tier code)
_CROSS_MODULE_HAZARDS = {
    "stream-shared-across-subsystems": ({
        # Each file is individually spotless: no global RNG, no wall
        # clock, no unordered iteration.  The bug only exists in the
        # *composition*: one derived stream drives both the topology
        # build (network) and the node lifecycle (pastry), so adding a
        # draw in one silently perturbs the other.
        "src/repro/network/topo.py": (
            "def build_topology(rng):\n"
            "    return [rng]\n"),
        "src/repro/pastry/life.py": (
            "def schedule_joins(rng):\n"
            "    return [rng]\n"),
        "src/repro/overlay/setup.py": (
            "from repro.network.topo import build_topology\n"
            "from repro.pastry.life import schedule_joins\n"
            "def prepare(streams):\n"
            "    shared = streams.stream('world')\n"
            "    topology = build_topology(shared)\n"
            "    joins = schedule_joins(shared)\n"
            "    return topology, joins\n"),
    }, "RNG001"),
    "wallclock-laundered-through-helper": ({
        # runtime is *exempt* from DET002 (it owns the wall clock), and
        # pastry/clocked.py never calls time.time() itself — the taint
        # arrives via a helper return across two module boundaries.  No
        # per-file rule can connect those dots.
        "src/repro/runtime/clockutil.py": (
            "import time\n"
            "def timestamp():\n"
            "    return time.time()\n"),
        "src/repro/runtime/bridge.py": (
            "from repro.runtime.clockutil import timestamp\n"
            "from repro.pastry.clocked import note_arrival\n"
            "def deliver(message):\n"
            "    note_arrival(timestamp())\n"),
        "src/repro/pastry/clocked.py": (
            "def note_arrival(when):\n"
            "    return when\n"),
    }, "FLOW001"),
    "message-type-missing-from-wire-registry": ({
        # messages.py alone cannot know the registry exists; wire.py
        # alone cannot know a subclass was added elsewhere.
        "src/repro/pastry/messages.py": (
            "class Message:\n    __slots__ = ()\n"
            "class JoinRequest(Message):\n    __slots__ = ()\n"
            "class NewProbe(Message):\n    __slots__ = ()\n"),
        "src/repro/runtime/wire.py": (
            "from repro.pastry import messages as m\n"
            "_REGISTRY = ((1, m.JoinRequest, ()),)\n"),
    }, "WIRE001"),
    "worker-mutates-far-away-module-state": ({
        # The worker is a perfectly picklable module-level function
        # (HARN001-clean) and the mutation hides two calls deep in a
        # different module.
        "src/repro/harness/registry.py": (
            "_MEMO = {}\n"
            "def intern(descriptor):\n"
            "    return _MEMO.setdefault(descriptor, descriptor)\n"),
        "src/repro/harness/jobs.py": (
            "from repro.harness.registry import intern\n"
            "def execute(job):\n"
            "    return intern(job)\n"),
        "src/repro/harness/pool.py": (
            "import multiprocessing as mp\n"
            "from repro.harness.jobs import execute\n"
            "def run(jobs):\n"
            "    ctx = mp.get_context('spawn')\n"
            "    for job in jobs:\n"
            "        ctx.Process(target=execute, args=(job,)).start()\n"),
    }, "PAR001"),
}


@pytest.mark.parametrize("hazard", sorted(_CROSS_MODULE_HAZARDS))
def test_cross_module_hazard_invisible_to_per_file_tier(hazard):
    files, expected = _CROSS_MODULE_HAZARDS[hazard]
    assert per_file_codes(files) == [], \
        f"{hazard}: fixture must be clean under every per-file rule"


@pytest.mark.parametrize("hazard", sorted(_CROSS_MODULE_HAZARDS))
def test_cross_module_hazard_caught_by_project_tier(hazard):
    files, expected = _CROSS_MODULE_HAZARDS[hazard]
    baseline = {1: "repro.pastry.messages.JoinRequest"} \
        if expected.startswith("WIRE") else None
    assert expected in project_codes(files, wire_baseline=baseline), hazard


def test_cross_module_hazards_via_full_runner(tmp_path):
    """End to end: lint_paths surfaces a cross-module hazard and a line
    suppression in the right file silences it."""
    from repro.analysis import lint_paths
    files, _ = _CROSS_MODULE_HAZARDS["stream-shared-across-subsystems"]
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    report = lint_paths([tmp_path / "src"], root=tmp_path)
    assert "RNG001" in [f.code for f in report.findings]
    # suppress at the flagged line, with a justification naming the code
    flagged = [f for f in report.findings if f.code == "RNG001"][0]
    path = tmp_path / flagged.path
    lines = path.read_text().splitlines()
    lines[flagged.line - 1] += \
        "  # detlint: disable=RNG001 -- RNG001: fixture shares by design"
    path.write_text("\n".join(lines) + "\n")
    report = lint_paths([tmp_path / "src"], root=tmp_path)
    assert "RNG001" not in [f.code for f in report.findings]
    assert report.suppressed >= 1
