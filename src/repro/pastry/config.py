"""MSPastry configuration: the parameters a caller varies, plus the paper's
fixed ones as module constants.

Defaults are the paper's base configuration (§5.1): ``b=4``, ``l=32``,
``To=3 s`` with 2 retries, ``Tls=30 s``, per-hop acks on, routing-table
probing self-tuned to a 5% raw loss rate, probe suppression on, symmetric
distance probes on, and nodes generating 0.01 lookups/s (the lookup rate
lives in the workload generator, not here).
"""

from __future__ import annotations

from dataclasses import dataclass

# --- failure detection (§3.1, §4.1) ------------------------------------
MAX_PROBE_RETRIES = 2  # r: probe retransmissions before a node is faulty
RT_PROBE_PERIOD_MAX = 86400.0  # self-tuning upper clamp on Trt
SELF_TUNING_INTERVAL = 30.0  # how often Trt is recomputed
#: ceiling on the liveness-sweep period: even when the raw-loss model says
#: routing-table probing is unnecessary (tiny overlays, low churn), the
#: whole routing state is swept at least this often so dead leaf-set
#: members beyond the failure-announcement radius get cleaned up
STATE_SWEEP_PERIOD = 900.0
FAILURE_HISTORY_SIZE = 16  # K failures remembered for the mu estimate
#: how long a confirmed failure is remembered before the node is worth
#: re-probing.  Under crash-stop a corpse stays dead and the veto could be
#: eternal, but gray failures (receive-only, out-lossy nodes) recover — an
#: everlasting failed set makes expelled-but-alive nodes, and in the worst
#: case whole islets of them, unrecoverable.  On expiry the entry is
#: dropped and re-probed once if it still belongs in the leaf set; repeated
#: failures back off exponentially up to ``FAILED_BACKOFF_MAX``.
FAILED_MEMORY = 120.0
FAILED_BACKOFF_MAX = 600.0
#: §4.1 probe suppression applied to leaf-set candidate probes: a candidate
#: we completed an LS-probe exchange with this recently is not re-probed
#: just because a neighbour's leaf set mentions it.  Under heavy membership
#: flapping (gray failures, partition heal) every exchange re-offers the
#: whole leaf set, and unsuppressed candidate probing cascades ring-wide.
#: Gated on ``PastryConfig.probe_suppression``.
CANDIDATE_PROBE_SUPPRESSION = 15.0

# --- reliable routing (§3.2) --------------------------------------------
RTO_MAX = 6.0
MAX_REROUTES = 8  # per-hop reroute attempts before giving up
#: a deferred delivery (``PastryConfig.defer_delivery_on_suspect``) is
#: retried after this long, at most this many times
DELIVERY_DEFER_INTERVAL = 0.5
MAX_DELIVERY_DEFERRALS = 4

# --- proximity neighbour selection (§4.2) --------------------------------
DISTANCE_PROBE_COUNT = 3  # probes per measurement (median taken)
DISTANCE_PROBE_SPACING = 1.0  # seconds between probes
RT_MAINTENANCE_PERIOD = 1200.0  # periodic RT gossip (20 min)


@dataclass
class PastryConfig:
    """The MSPastry parameters some caller sets to a non-default value.

    ``b`` and ``leaf_set_size``: the Figure 7 parameter sweeps (and
    ``live_config()`` for ``l``).  ``probe_timeout`` and
    ``heartbeat_period``: ``live_config()`` and the live benchmark.
    ``heartbeat_all_leafset``, ``rt_probe_period``, ``probe_suppression``,
    ``rto_variance_weight``, ``defer_delivery_on_suspect`` and
    ``symmetric_distance_probes``: the design-choice ablations, which with
    the live benchmark also vary ``rto_initial`` and ``rto_min``.
    ``active_rt_probing``: the §5.3 dependability ablation, which with the
    self-tuning sweep also varies ``per_hop_acks``.  ``self_tuning``: the
    probing-period ablation and ``live_config()``.  ``target_raw_loss``:
    the self-tuning sweep.  ``pns`` (which also seeds a join by
    nearest-neighbour discovery): ``live_config()``.
    """

    # --- identifier space / routing structure (§2) ---------------------
    b: int = 4  # digit size in bits; routing table has 2^b columns
    leaf_set_size: int = 32  # l: l/2 neighbours on each side

    # --- failure detection (§3.1, §4.1) --------------------------------
    probe_timeout: float = 3.0  # To: same as the TCP SYN timeout
    heartbeat_period: float = 30.0  # Tls
    #: baseline for the §4.1 ablation: heartbeat every leaf-set member
    #: instead of only the left neighbour (cost grows with l)
    heartbeat_all_leafset: bool = False
    active_rt_probing: bool = True
    self_tuning: bool = True
    target_raw_loss: float = 0.05  # Lr: tuned raw loss rate target
    rt_probe_period: float = 60.0  # Trt when self-tuning is off
    probe_suppression: bool = True

    # --- reliable routing (§3.2) ----------------------------------------
    per_hop_acks: bool = True
    rto_initial: float = 0.5
    rto_min: float = 0.05  # aggressive retransmission floor
    #: srtt + w·rttvar; 2.0 is MSPastry-aggressive, 4.0 is standard TCP
    rto_variance_weight: float = 2.0
    #: before delivering, wait for a closer-but-suspected leaf-set node to
    #: either answer its probe (we forward to it) or be marked faulty (we
    #: deliver); bounds the consistency violations under link loss (§3.2).
    #: A silent hop is rerouted around, not retransmitted to: this is what
    #: keeps a lost packet from diverting delivery at the final hop.
    defer_delivery_on_suspect: bool = True

    # --- proximity neighbour selection (§4.2) ---------------------------
    #: also gates passive repair of empty routing slots and the
    #: nearest-neighbour seed discovery before a join
    pns: bool = True
    symmetric_distance_probes: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.b <= 8:
            raise ValueError(f"b out of range [1, 8]: {self.b}")
        if self.leaf_set_size < 2 or self.leaf_set_size % 2 != 0:
            raise ValueError(f"leaf set size must be even and >= 2: {self.leaf_set_size}")
        if self.probe_timeout <= 0 or self.heartbeat_period <= 0:
            raise ValueError("timeouts must be positive")
        if not 0.0 < self.target_raw_loss < 1.0:
            raise ValueError(f"target_raw_loss must be in (0, 1): {self.target_raw_loss}")

    @property
    def rt_probe_period_min(self) -> float:
        """Paper lower bound on Trt: (retries + 1) * To."""
        return (MAX_PROBE_RETRIES + 1) * self.probe_timeout
