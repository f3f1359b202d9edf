"""Ensemble and protocol configuration.

The knobs mirror ZooKeeper's: ``tickTime`` drives heartbeats and failure
detection, ``initLimit``/``syncLimit`` bound the handshake and follower
staleness, and the pipelining limit controls the broadcast phase's
multiple-outstanding-transactions behaviour that the paper highlights.
"""

from repro.common.errors import ConfigError
from repro.zab.dissemination import resolve_dissemination
from repro.zab.quorum import MajorityQuorum


class ZabConfig:
    """Parameters shared by every peer of one ensemble.

    voters
        Ids of voting peers.
    observers
        Ids of non-voting peers (receive INFORM messages only).
    quorum
        A :class:`~repro.zab.quorum.QuorumVerifier`; defaults to simple
        majority over *voters*.
    tick
        Heartbeat period in (simulated) seconds.
    init_limit
        Ticks a handshake (discovery + sync) may take before giving up.
    sync_limit
        Ticks of silence after which leader/follower declare each other
        dead.
    max_outstanding
        Maximum broadcast proposals in flight (not yet committed) at the
        leader.  1 emulates a conservative one-at-a-time sequencer; the
        paper's design point is "many".
    snapshot_every
        Take an application snapshot every N delivered transactions.
    snap_sync_threshold
        During sync, if a follower lags by more than this many
        transactions (or the needed records were purged), ship a snapshot
        (SNAP) instead of a diff (DIFF).
    dissemination
        Broadcast-phase propagation topology: one of
        :data:`~repro.zab.dissemination.DISSEMINATION_TOPOLOGIES`
        (``"leader-direct"``, ``"chain"``, ``"tree"``, ``"ring"``) or a
        :class:`~repro.zab.dissemination.DisseminationStrategy`
        instance.  ``leader-direct``, the default, is the empty relay
        plan: the leader sends to every follower itself.
    """

    def __init__(
        self,
        voters,
        observers=(),
        quorum=None,
        tick=0.05,
        init_limit=10,
        sync_limit=4,
        max_outstanding=64,
        snapshot_every=1000,
        snap_sync_threshold=500,
        digest_every=0,
        dissemination="leader-direct",
    ):
        voters = tuple(sorted(voters))
        observers = tuple(sorted(observers))
        if not voters:
            raise ConfigError("ensemble needs at least one voter")
        if set(voters) & set(observers):
            raise ConfigError("a peer cannot be both voter and observer")
        if tick <= 0:
            raise ConfigError("tick must be positive")
        if init_limit < 1 or sync_limit < 1:
            raise ConfigError("init_limit and sync_limit must be >= 1")
        if max_outstanding < 1:
            raise ConfigError("max_outstanding must be >= 1")
        self.voters = voters
        self.observers = observers
        self.quorum = quorum or MajorityQuorum(voters)
        if set(self.quorum.voters) != set(voters):
            raise ConfigError("quorum verifier voter set != voters")
        self.tick = tick
        self.init_limit = init_limit
        self.sync_limit = sync_limit
        self.max_outstanding = max_outstanding
        self.snapshot_every = snapshot_every
        self.snap_sync_threshold = snap_sync_threshold
        if digest_every < 0:
            raise ConfigError("digest_every must be >= 0")
        self.digest_every = digest_every
        self.dissemination = resolve_dissemination(dissemination)

    @property
    def all_peers(self):
        """Voters plus observers."""
        return self.voters + self.observers

    def handshake_timeout(self):
        """Seconds a peer waits for discovery+sync to finish."""
        return self.tick * self.init_limit

    def staleness_timeout(self):
        """Seconds of silence before declaring the peer at the other end
        of a leader/follower channel dead."""
        return self.tick * self.sync_limit
