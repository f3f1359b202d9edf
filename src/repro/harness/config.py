"""Typed cluster construction (`ClusterConfig`).

Everything a :class:`~repro.harness.Cluster` is built from — ensemble
shape, network and disk models, tracing, checker wiring, fault seams,
dissemination topology — lives in one typed, validated object::

    from repro import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(
        n_voters=5, seed=7, dissemination="chain",
        zab={"max_outstanding": 128},
    )).start()
"""

import dataclasses

from repro.app.kvstore import KVStateMachine
from repro.common.errors import ConfigError
from repro.zab.dissemination import resolve_dissemination

_DISK_MODES = (None, "model", "shared")
_PROTOCOLS = ("zab", "paxos")


@dataclasses.dataclass
class ClusterConfig:
    """Everything needed to build a :class:`~repro.harness.Cluster`.

    Fields
    ------
    n_voters / n_observers / seed
        Ensemble shape (peer ids 1..n then n+1..n+m) and the root seed
        for all randomness.
    net
        Optional :class:`~repro.net.NetworkConfig` (latency, jitter,
        NIC bandwidth, loss).
    app_factory
        Replicated state-machine factory; defaults to the KV store.
    disk / fsync_latency / disk_bandwidth / group_commit
        Durability model: ``None`` (instant), ``"model"`` (one disk per
        peer), ``"shared"`` (all peers contend on one device).
    dissemination
        Broadcast propagation topology — one of
        ``repro.DISSEMINATION_TOPOLOGIES`` (``"leader-direct"``,
        ``"chain"``, ``"tree"``, ``"ring"``) or a
        :class:`~repro.DisseminationStrategy` instance.
    checker_trace / tracer / metrics
        Observability wiring: the shared PO-property checker trace, a
        structured-event :class:`~repro.obs.Tracer`, and a
        :class:`~repro.obs.MetricsRegistry`.
    recorder
        The always-on flight recorder (black box).  ``True`` (default)
        builds a fresh :class:`~repro.obs.FlightRecorder` in its
        near-zero-cost control-plane posture (elections, sync, role
        transitions, faults — ``tests/test_hotpath_budget.py`` holds it
        to half a Python frame per committed op over tracing off);
        pass an instance to control capacity or posture
        (``FlightRecorder(capture="all")`` rings the full stream), or
        ``False``/``None`` for the bare ``NULL_TRACER`` path.  Without
        a ``tracer`` the recorder *is* the cluster tracer; with one it
        rides the tracer's observer feed and retains the tail of the
        recorded stream.
    leader_factory
        Leader-context factory seam (fault-injection tests plant broken
        leaders here; see :mod:`repro.harness.buggy`).
    zab
        Extra keyword arguments for :class:`~repro.zab.config.ZabConfig`
        (``tick``, ``max_outstanding``, ``snapshot_every``, ...).
    protocol
        ``"zab"`` (default) or ``"paxos"``: the multi-Paxos baseline,
        which reads ``tick``, ``sync_limit`` (leader silence budget, in
        ticks) and ``max_outstanding`` from *zab*.  Observers, ``disk``,
        relay topologies, ``metrics`` and ``leader_factory`` are Zab's
        alone: Paxos refuses them here.
    """

    n_voters: int = 3
    n_observers: int = 0
    seed: int = 0
    net: object = None
    app_factory: object = KVStateMachine
    disk: object = None
    fsync_latency: float = 0.0005
    disk_bandwidth: float = 200e6
    group_commit: bool = True
    dissemination: object = "leader-direct"
    checker_trace: object = None
    tracer: object = None
    recorder: object = True
    metrics: object = None
    leader_factory: object = None
    zab: dict = dataclasses.field(default_factory=dict)
    protocol: str = "zab"

    def __post_init__(self):
        if self.n_voters < 1:
            raise ConfigError("need at least one voter")
        if self.n_observers < 0:
            raise ConfigError("n_observers must be >= 0")
        if self.disk not in _DISK_MODES:
            raise ConfigError("unknown disk mode: %r" % (self.disk,))
        if "dissemination" in self.zab:
            raise ConfigError(
                "pass dissemination as a ClusterConfig field, not inside "
                "zab overrides"
            )
        if self.protocol not in _PROTOCOLS:
            raise ConfigError("unknown protocol: %r" % (self.protocol,))
        if self.protocol == "paxos":
            refused = [name for name, zab_only in (
                ("n_observers", self.n_observers),
                ("disk", self.disk is not None),
                ("dissemination",
                 not resolve_dissemination(self.dissemination).direct),
                ("metrics", self.metrics is not None),
                ("leader_factory", self.leader_factory is not None),
            ) if zab_only]
            if refused:
                raise ConfigError("the paxos baseline cannot honour %s"
                                  % ", ".join(refused))

    def voter_ids(self):
        return tuple(range(1, self.n_voters + 1))

    def observer_ids(self):
        return tuple(
            range(self.n_voters + 1, self.n_voters + self.n_observers + 1)
        )

    def zab_config(self):
        """The :class:`~repro.zab.config.ZabConfig` this cluster runs."""
        from repro.zab.config import ZabConfig

        return ZabConfig(
            self.voter_ids(), observers=self.observer_ids(),
            dissemination=self.dissemination, **self.zab
        )

    def replace(self, **changes):
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
