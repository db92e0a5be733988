"""Reproduction of "Performance and Dependability of Structured Peer-to-Peer
Overlays" (Castro, Costa, Rowstron — DSN 2004): MSPastry, its simulation
substrates, and the paper's full evaluation harness.

Public entry points:

* :mod:`repro.pastry` — the MSPastry protocol implementation,
* :mod:`repro.overlay` — experiment runner, oracle, workloads,
* :mod:`repro.network` — topology models and lossy transport,
* :mod:`repro.traces` — churn trace generators and analysis,
* :mod:`repro.apps` — the Squirrel web cache (the paper's Figure 8),
* :mod:`repro.experiments` — one module per paper figure/table,
* :mod:`repro.runtime` — the same protocol over asyncio UDP sockets.

Importing ``repro`` imports none of them: a live node loads the protocol
and the engine's timer queue, never the simulator's numeric stack.
"""

__version__ = "1.0.0"
