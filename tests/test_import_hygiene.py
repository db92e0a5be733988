"""What an entry point loads, in a fresh interpreter, and what simulated
code may import at all.

A live node and the CLI carry none of the simulator's numeric stack, and
a simulated run on CorpNet or GATech loads no scipy: only a Mercator map
does (DESIGN.md §13).
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


def loaded_by(code):
    """``sys.modules`` of a fresh interpreter that ran ``code``."""
    code = f"import sys\n{code}\nprint('\\n'.join(sys.modules))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    return set(out.stdout.split())


def loaded_after(*modules):
    """``sys.modules`` of a fresh interpreter that imported ``modules``."""
    return loaded_by("".join(f"import {name}\n" for name in modules))


def test_a_live_node_and_the_cli_load_no_simulator_stack():
    loaded = loaded_after("repro.runtime.service", "repro.runtime.live", "repro.cli")
    assert {"repro.runtime.service", "repro.runtime.live", "repro.cli"} <= loaded
    assert not loaded & {"numpy", "scipy", "repro.overlay", "repro.experiments"}


#: lookups routed over a small overlay on a CorpNet and a GATech map, after
#: GATech's trees, a row miss and the whole-map ``_row`` search on each
ROUTER_MAP_RUN = """
import random
from repro.network.corpnet import CorpNetTopology
from repro.network.transit_stub import TransitStubTopology
from repro.overlay.utils import build_overlay
from repro.pastry.nodeid import ID_SPACE

rng, delivered = random.Random(5), []
for topo in (CorpNetTopology(rng), TransitStubTopology.scaled(rng, scale=0.3)):
    topo.router_delay(3, topo.n_routers - 1)
    topo._row(5)
    sim, _, nodes = build_overlay(8, topology=topo, settle=10.0)
    for node in nodes:
        node.on_deliver = lambda node, msg: delivered.append(msg)
        node.lookup(rng.randrange(ID_SPACE))
    sim.run(until=sim.now + 10.0)
assert len(delivered) == 16, len(delivered)
"""


def test_a_corpnet_or_gatech_run_loads_no_scipy():
    loaded = loaded_by(ROUTER_MAP_RUN)
    assert {"numpy", "repro.network.transit_stub", "repro.overlay"} <= loaded
    assert not {name for name in loaded if name.split(".")[0] == "scipy"}
    mercator = loaded_by("import random\n"
                         "from repro.network.hierarchical_as import HierarchicalASTopology\n"
                         "topo = HierarchicalASTopology(random.Random(5), n_as=8)\n"
                         "topo.router_hops(0, topo.n_routers - 1)")
    assert "scipy.sparse.csgraph" in mercator  # its AS rows are scipy's search


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
