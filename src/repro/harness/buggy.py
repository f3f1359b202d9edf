"""Deliberately broken protocol variants and the seeded-bug registry.

The failure-reproduction pipeline (schedule -> replay -> ddmin) and the
bounded explorer (:mod:`repro.mc`) both need known-bad protocols to
prove themselves against: correct Zab never violates the PO properties,
so there would be nothing to find, shrink, or regression-test the
*checker itself* with.  Each class here plants one specific, realistic
protocol bug, and :data:`SEEDED_BUGS` records — per bug — the exact set
of PO properties it must trip and a canonical fault schedule that
triggers it deterministically.  The corpus tests assert the checker
flags exactly that set and no others, so the oracle is itself under
regression test.

Inject any of them through the ``leader_factory`` seam::

    from repro import Cluster, ClusterConfig
    from repro.harness.buggy import BuggyLeaderContext

    cluster = Cluster(ClusterConfig(
        seed=7, leader_factory=BuggyLeaderContext,
    ))
"""

from repro.harness.schedule import ActionSchedule
from repro.storage.snapshot import Snapshot
from repro.zab.leader import LeaderContext
from repro.zab.zxid import Zxid


class BuggyLeaderContext(LeaderContext):
    """A leader that commits without waiting for a quorum of ACKs.

    Identical to :class:`~repro.zab.leader.LeaderContext` except that
    a proposal counts as quorate once *any* voter acknowledged it — the
    classic "forgot the quorum check" bug.  Everything else (discovery,
    synchronisation, ordering) is untouched, so violations only surface
    when the premature commits get lost: a leader crash or an isolating
    partition with writes in flight.
    """

    def _quorum_frontier(self):
        # BUG: should be a quorum check
        return max(self.acked.values(), default=None)


class _RelabelingTrace:
    """Trace proxy that skews the zxid of recorded broadcasts."""

    def __init__(self, trace):
        self._trace = trace

    def record_broadcast(self, process, epoch, zxid, txn_id):
        skewed = Zxid(zxid.epoch, zxid.counter + 1000)
        self._trace.record_broadcast(process, epoch, skewed, txn_id)

    def __getattr__(self, name):
        return getattr(self._trace, name)


class RelabelingLeaderContext(LeaderContext):
    """A leader whose broadcast records carry the wrong transaction id.

    Models a bookkeeping bug where the id a transaction is *announced*
    under differs from the id it is *delivered* under (the zxid counter
    is skewed by 1000 at broadcast-record time).  Pure metadata rot: the
    replicated state stays consistent, so the one and only property it
    can trip is **integrity** ("delivered under a different identifier
    than broadcast") — and it trips on the very first committed write,
    no fault injection needed.
    """

    def _propose(self, request):
        real = self.peer.trace
        if real is not None:
            self.peer.trace = _RelabelingTrace(real)
        try:
            LeaderContext._propose(self, request)
        finally:
            self.peer.trace = real


class CommitSkipLeaderContext(LeaderContext):
    """A leader that silently skips every k-th local commit.

    The proposal reaches quorum, leaves the outstanding window and is
    covered by the cumulative COMMIT, so followers deliver it; only the
    leader's own local delivery is dropped.  Its delivered sequence is
    forever missing one entry, so its positions disagree with everyone
    else's from that point on.
    """

    skip_every = 5

    def __init__(self, peer):
        LeaderContext.__init__(self, peer)
        self._commit_calls = 0

    def _commit(self, zxid, proposal):
        self._commit_calls += 1
        if self._commit_calls % self.skip_every == 0:
            return  # BUG: quorum reached, never delivered locally
        LeaderContext._commit(self, zxid, proposal)


class PositionSkipLeaderContext(LeaderContext):
    """A leader whose delivery-index counter jumps over a slot.

    Before its k-th commit the leader bumps its global delivery position
    by one without delivering anything — the classic off-by-one in an
    index counter.  Its history then has a hole (**agreement**: positions
    must be gapless) and every later delivery sits one slot later than
    the same transaction on the followers (**total order**: two processes
    disagree about what a position holds).
    """

    skip_at = 3

    def __init__(self, peer):
        LeaderContext.__init__(self, peer)
        self._commit_calls = 0

    def _commit(self, zxid, proposal):
        self._commit_calls += 1
        if self._commit_calls == self.skip_at:
            self.peer.position += 1  # BUG: phantom slot in the index
        LeaderContext._commit(self, zxid, proposal)


class SnapshotSkipLeaderContext(LeaderContext):
    """A leader whose sync snapshots lie about their watermark.

    The fuzzy-snapshot watermark bug: when a follower needs SNAP
    synchronisation, the snapshot this leader ships is built one
    transaction short of the committed horizon but *labeled* as
    covering the full horizon.  The follower believes itself current
    at the claimed zxid while its delivery position is one slot
    behind, so every subsequent delivery lands one index off against
    the rest of the ensemble (**total order**).  The state *content*
    survives — fuzzy snapshots are deltas-idempotent by design — which
    is exactly why a watermark lie is insidious: replicas agree on the
    data while silently disagreeing on the order that produced it.
    The bug only fires when a follower actually falls past the DIFF
    window — a crash plus a log compaction while it is down is the
    canonical trigger, which is why the explorer needs operator
    actions (``ops_actions=True``) to rediscover it.
    """

    def _snapshot_provider(self):
        horizon = self.committed_horizon()
        if (
            self._snapshot_cache is None
            or self._snapshot_cache.last_zxid != horizon
        ):
            prev = None
            for record in self.peer.storage.log.all_entries():
                if record.zxid < horizon:
                    prev = record.zxid
                else:
                    break
            if prev is None:
                # Cannot build a short state; stay honest (keeps the
                # variant safe on schedules that never exercise it).
                self._snapshot_cache = self.peer.build_snapshot(horizon)
            else:
                short = self.peer.build_snapshot(prev)
                # BUG: relabel the short state as the full horizon.
                self._snapshot_cache = Snapshot(
                    horizon, short.state, short.size
                )
        return self._snapshot_cache


class SeededBug:
    """One registry entry: the plant, its oracle, and its trigger."""

    __slots__ = ("name", "factory", "expected", "description", "_actions",
                 "explorer_kwargs")

    def __init__(self, name, factory, expected, description, actions=(),
                 explorer_kwargs=None):
        self.name = name
        self.factory = factory
        self.expected = frozenset(expected)
        self.description = description
        self._actions = tuple(actions)
        self.explorer_kwargs = dict(explorer_kwargs or {})

    def canonical_schedule(self, seed=0, n_voters=3, op_interval=0.02):
        """A fresh copy of the pinned schedule that triggers this bug."""
        schedule = ActionSchedule(meta={
            "seed": seed,
            "n_voters": n_voters,
            "op_interval": op_interval,
        })
        for time, kind, target in self._actions:
            schedule.add(time, kind, target)
        return schedule


#: name -> :class:`SeededBug`.  The checker self-test corpus iterates
#: this; adding a buggy variant without registering it here fails the
#: corpus completeness test.
SEEDED_BUGS = {
    bug.name: bug
    for bug in [
        SeededBug(
            "quorum_skip",
            BuggyLeaderContext,
            expected={
                "local_primary_order", "primary_integrity", "total_order",
            },
            description="commits on any single ACK instead of a quorum; "
                        "isolating the leader mid-load loses its "
                        "premature commits",
            # Pinned to the seed-0 election outcome (peer 3 leads); the
            # corpus test fails loudly if that ever changes.
            actions=[(0.25, "partition", [[3]]), (0.75, "heal", None)],
        ),
        SeededBug(
            "zxid_relabel",
            RelabelingLeaderContext,
            expected={"integrity"},
            description="broadcast records carry a skewed zxid, so "
                        "deliveries never match their announcement",
        ),
        SeededBug(
            "commit_skip",
            CommitSkipLeaderContext,
            expected={"local_primary_order", "total_order"},
            description="every 5th local commit is skipped; the "
                        "cumulative COMMIT still reaches the followers, "
                        "so only the leader's history keeps a hole",
            # The trigger (the 5th commit) is a burst in the schedule,
            # not load from the quiesce tail, which stops early.
            actions=[(0.0, "submit", 8)],
        ),
        SeededBug(
            "position_skip",
            PositionSkipLeaderContext,
            expected={"agreement", "local_primary_order", "total_order"},
            description="the leader's delivery index jumps a slot, "
                        "shifting every later delivery off by one",
            # Likewise for the 3rd commit.
            actions=[(0.0, "submit", 8)],
        ),
        SeededBug(
            "snapshot_skip",
            SnapshotSkipLeaderContext,
            expected={"total_order"},
            description="SNAP-sync snapshots claim a horizon one txn "
                        "ahead of the state they carry; a compaction-"
                        "forced SNAP shifts the follower's delivery "
                        "order one slot against the ensemble",
            # Crash a follower, snapshot under load, compact so DIFF
            # becomes impossible, recover: the rejoin must SNAP-sync
            # through the lying provider.
            actions=[
                (0.25, "crash_follower", None),
                (0.75, "snapshot", None),
                (1.0, "compact_log", 1),
                (1.25, "recover_all", None),
            ],
            # Snapshot/compaction are operator moves; the explorer only
            # offers them with ops actions enabled.
            explorer_kwargs={"ops_actions": True},
        ),
    ]
}
