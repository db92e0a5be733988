"""Network substrate: topology models and the lossy packet transport.

The paper evaluates MSPastry on three simulated topologies — a GT-ITM
transit-stub graph ("GATech"), a real router-level Internet map ("Mercator",
proximity = IP hops) and a measured corporate network ("CorpNet").  We rebuild
all three as synthetic generators that preserve the structural properties the
paper's results depend on (see DESIGN.md §1).
"""

from repro.network.base import Topology
from repro.network.corpnet import CorpNetTopology
from repro.network.hierarchical_as import HierarchicalASTopology
from repro.network.simple import UniformDelayTopology
from repro.network.transit_stub import TransitStubTopology
from repro.network.transport import Network

__all__ = [
    "CorpNetTopology",
    "HierarchicalASTopology",
    "Network",
    "Topology",
    "TransitStubTopology",
    "UniformDelayTopology",
]
