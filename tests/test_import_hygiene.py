"""What an entry point loads, in a fresh interpreter.

A live node and the CLI carry none of the simulator's numeric stack, and
the topology modules load scipy only when a map is built (DESIGN.md §13).
"""

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
