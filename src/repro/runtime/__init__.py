"""Real-socket runtime: MSPastry over asyncio UDP (DESIGN.md §13).

The same :class:`repro.pastry.node.MSPastryNode` state machines that the
discrete-event simulator drives run here over real sockets and the wall
clock, behind the ``Clock``/``Transport`` seam of :mod:`repro.interfaces`:

* :mod:`repro.runtime.wire` — deterministic length-prefixed codec for
  every ``repro.pastry.messages`` type,
* :mod:`repro.runtime.clock` — :class:`AsyncioClock`, the ``Clock``
  protocol on the wall clock: it drives the simulator's own timer queue
  from the asyncio loop,
* :mod:`repro.runtime.transport` — :class:`UdpTransport`, one UDP socket
  per node implementing the ``Transport`` protocol,
* :mod:`repro.runtime.metrics` — per-process JSON metrics endpoint,
* :mod:`repro.runtime.service` — :class:`NodeService`: one node's life
  cycle (bootstrap, seed discovery, graceful shutdown),
* :mod:`repro.runtime.live` — spawn/drive/tear down an N-node localhost
  network and emit a schema-versioned ``repro-live/1`` artifact.

This package deliberately uses asyncio, sockets and the wall clock, which
simulation code may not: ``tests/test_import_hygiene.py`` keeps them out
of the simulated packages and ``tests/test_determinism_regressions.py``
runs the pinned experiments with them poisoned (DESIGN.md §9).
"""

from repro.runtime.clock import AsyncioClock  # noqa: F401
from repro.runtime.live import (  # noqa: F401
    LIVE_SCHEMA,
    LiveError,
    LiveSpec,
    format_live_report,
    run_live,
    verify_live_schema,
    write_live_artifact,
)
from repro.runtime.service import NodeService  # noqa: F401
from repro.runtime.transport import UdpTransport, pack_addr, unpack_addr  # noqa: F401
from repro.runtime.wire import WireError, decode, decode_frame, encode, encode_frame  # noqa: F401
