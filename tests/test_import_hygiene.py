"""What an entry point loads, in a fresh interpreter, and what simulated
code may import at all.

A live node and the CLI carry none of the simulator's numeric stack, and
the topology modules load scipy only when a map is built (DESIGN.md §13).
Simulated code reaches the outside world only through the ``Clock`` /
``Transport`` seam, so it imports no event loop, socket, thread or process
machinery (DESIGN.md §9).
"""

import ast
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def loaded_after(*modules):
    """``sys.modules`` of a fresh interpreter that imported ``modules``."""
    code = "".join(f"import {name}\n" for name in ("sys",) + modules)
    code += "print('\\n'.join(sys.modules))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    return set(out.stdout.split())


def test_a_live_node_and_the_cli_load_no_simulator_stack():
    loaded = loaded_after("repro.runtime.service", "repro.runtime.live", "repro.cli")
    assert {"repro.runtime.service", "repro.runtime.live", "repro.cli"} <= loaded
    assert not loaded & {"numpy", "scipy", "repro.overlay", "repro.experiments"}


def test_topology_modules_load_scipy_only_to_build_a_map():
    loaded = loaded_after("repro.network", "repro.network.transit_stub",
                          "repro.network.corpnet", "repro.network.hierarchical_as")
    assert "repro.network.hierarchical_as" in loaded
    assert "scipy" not in loaded


SIMULATED = ("sim", "pastry", "overlay", "network", "faults", "traces",
             "adversary", "metrics")
REAL_IO = {"asyncio", "socket", "selectors", "threading", "subprocess",
           "socketserver", "multiprocessing"}


def imported_roots(tree):
    """The top-level module of every absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_simulated_packages_import_no_real_io():
    """Read from the source, not ``sys.modules``: numpy and scipy already
    load ``threading``, ``socket`` and ``selectors`` into a simulation."""
    paths = [os.path.join(root, name)
             for package in SIMULATED
             for root, _, names in os.walk(os.path.join(SRC, "repro", package))
             for name in names if name.endswith(".py")]
    assert len(paths) > len(SIMULATED)
    offenders = []
    for path in sorted(paths):
        with open(path) as source:
            tree = ast.parse(source.read(), path)
        offenders += [f"{os.path.relpath(path, SRC)}: import {root}"
                      for root in imported_roots(tree) if root in REAL_IO]
    assert offenders == []
