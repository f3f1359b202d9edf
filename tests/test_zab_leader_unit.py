"""Leader-context tests driven by scripted (puppet) peers.

A puppet is a network endpoint we control by hand, which lets these
tests walk the leader through exact message sequences — including the
rare discovery path where a *follower* holds the freshest history and
the leader must fetch and adopt it before synchronising anyone.
"""

from repro.app.statemachine import Txn
from repro.harness import Cluster, ClusterConfig
from repro.storage.records import LogRecord
from repro.zab import messages
from repro.zab.zxid import Zxid, ZXID_ZERO


class Puppet:
    """A hand-driven protocol endpoint."""

    def __init__(self, cluster, peer_id):
        self.cluster = cluster
        self.peer_id = peer_id
        self.inbox = []
        cluster.network.register(peer_id, self._receive)

    def _receive(self, src, msg):
        self.inbox.append((src, msg))

    def send(self, dst, msg):
        self.cluster.network.send(self.peer_id, dst, msg)

    def received(self, message_type):
        return [
            msg for _src, msg in self.inbox
            if isinstance(msg, message_type)
        ]

    def drain(self):
        self.inbox = []


def seed_txn(epoch, counter):
    name = "seed-%d-%d" % (epoch, counter)
    return Txn(name, name, None, 0, ("set", "seed", counter), 16)


def leader_with_puppets(seed=260, n_observers=0):
    """Peer 3 starts alone; peers 1 and 2 are puppets."""
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=n_observers, seed=seed))
    cluster.peers[3].start()
    puppet1 = Puppet(cluster, 1)
    puppet2 = Puppet(cluster, 2)
    # Peer 3, alone, cannot finish election; drive it to LEADING by
    # voting for it from puppet 2.
    cluster.run(0.05)
    note = messages.Notification(
        leader=3, zxid=ZXID_ZERO, peer_epoch=0, round=1,
        sender_state=messages.LOOKING,
    )
    puppet2.send(3, note)
    cluster.run_until(
        lambda: cluster.peers[3].state == messages.LEADING, timeout=10
    )
    return cluster, cluster.peers[3], puppet1, puppet2


def test_discovery_fetches_fresher_follower_history():
    cluster, leader, puppet1, puppet2 = leader_with_puppets()
    # Both puppets check in; puppet 1 claims a fresher history
    # (currentEpoch 1, two transactions) than the leader's empty one.
    puppet1.send(3, messages.FollowerInfo(1, Zxid(1, 2)))
    puppet2.send(3, messages.FollowerInfo(1, ZXID_ZERO))
    cluster.run(0.05)
    assert puppet1.received(messages.NewEpoch)
    epoch = puppet1.received(messages.NewEpoch)[0].epoch
    assert epoch == 2  # max(accepted)+1

    # Deliver puppet 1's ACK-E first so it is part of the discovery
    # quorum (cross-sender arrival order is not FIFO).
    puppet1.send(3, messages.AckEpoch(1, Zxid(1, 2)))
    cluster.run(0.05)
    puppet2.send(3, messages.AckEpoch(0, ZXID_ZERO))
    cluster.run(0.05)
    # The leader must ask the fresher follower for its history.
    assert puppet1.received(messages.HistoryRequest)

    records = [
        LogRecord(Zxid(1, 1), seed_txn(1, 1), 16),
        LogRecord(Zxid(1, 2), seed_txn(1, 2), 16),
    ]
    puppet1.send(3, messages.HistoryResponse(1, records))
    cluster.run(0.1)
    # Adopted wholesale:
    assert leader.storage.log.last_durable() == Zxid(1, 2)
    # And both puppets got sync streams ending in NEWLEADER(2).
    assert puppet1.received(messages.NewLeader)
    assert puppet2.received(messages.NewLeader)
    # Puppet 2 (empty) receives the full history as a DIFF.
    assert len(puppet2.received(messages.SyncTxn)) == 2
    # Puppet 1 already has everything: empty DIFF.
    assert len(puppet1.received(messages.SyncTxn)) == 0


def test_establishment_requires_quorum_of_acknowledgements():
    cluster, leader, puppet1, puppet2 = leader_with_puppets(seed=261)
    puppet1.send(3, messages.FollowerInfo(0, ZXID_ZERO))
    puppet2.send(3, messages.FollowerInfo(0, ZXID_ZERO))
    cluster.run(0.05)
    puppet1.send(3, messages.AckEpoch(0, ZXID_ZERO))
    puppet2.send(3, messages.AckEpoch(0, ZXID_ZERO))
    cluster.run(0.05)
    assert not leader.ctx.established  # no ACK-LD yet (only self)
    epoch = puppet1.received(messages.NewLeader)[0].epoch
    puppet1.send(3, messages.AckNewLeader(epoch, ZXID_ZERO))
    cluster.run(0.05)
    assert leader.ctx.established     # self + puppet1 = quorum of 3
    assert puppet1.received(messages.UpToDate)


def test_leader_aborts_handshake_without_quorum():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=262))
    cluster.peers[3].start()
    Puppet(cluster, 1)
    puppet2 = Puppet(cluster, 2)
    cluster.run(0.05)
    puppet2.send(3, messages.Notification(
        leader=3, zxid=ZXID_ZERO, peer_epoch=0, round=1,
        sender_state=messages.LOOKING,
    ))
    cluster.run_until(
        lambda: cluster.peers[3].state == messages.LEADING, timeout=10
    )
    # Nobody completes the handshake: after init_limit ticks the leader
    # gives up and goes back to LOOKING.
    cluster.run(cluster.config.handshake_timeout() + 0.2)
    assert cluster.peers[3].state == messages.LOOKING


def test_sync_mode_counters():
    cluster, leader, puppet1, puppet2 = leader_with_puppets(seed=263)
    puppet1.send(3, messages.FollowerInfo(0, ZXID_ZERO))
    puppet2.send(3, messages.FollowerInfo(0, ZXID_ZERO))
    cluster.run(0.05)
    puppet1.send(3, messages.AckEpoch(0, ZXID_ZERO))
    puppet2.send(3, messages.AckEpoch(0, ZXID_ZERO))
    cluster.run(0.05)
    assert leader.ctx.sync_modes == {"diff": 2}


def test_stale_acks_for_unknown_proposals_are_ignored():
    cluster, leader, puppet1, puppet2 = leader_with_puppets(seed=264)
    for puppet in (puppet1, puppet2):
        puppet.send(3, messages.FollowerInfo(0, ZXID_ZERO))
    cluster.run(0.05)
    for puppet in (puppet1, puppet2):
        puppet.send(3, messages.AckEpoch(0, ZXID_ZERO))
    cluster.run(0.05)
    epoch = puppet1.received(messages.NewLeader)[0].epoch
    puppet1.send(3, messages.AckNewLeader(epoch, ZXID_ZERO))
    cluster.run(0.05)
    assert leader.ctx.established
    # An ack for a zxid that was never proposed must not crash or
    # commit anything.
    puppet1.send(3, messages.Ack(Zxid(epoch, 42)))
    cluster.run(0.05)
    assert leader.ctx.commits == 0


def test_observer_never_counts_at_the_leader():
    # Peer 4 is an observer.  It forges every message a voter would use
    # to sway the leader; each one arrives before the voter's own and
    # must change nothing.
    cluster, leader, voter, _idle = leader_with_puppets(
        seed=265, n_observers=1)
    observer = Puppet(cluster, 4)
    observer.send(3, messages.FollowerInfo(9, Zxid(9, 9)))
    cluster.run(0.05)
    voter.send(3, messages.FollowerInfo(0, ZXID_ZERO))
    cluster.run(0.05)
    epoch = voter.received(messages.NewEpoch)[0].epoch
    assert epoch == 1                       # not 9 + 1
    assert observer.received(messages.NewEpoch)[0].epoch == 1

    observer.send(3, messages.AckEpoch(9, Zxid(9, 9)))
    cluster.run(0.05)
    voter.send(3, messages.AckEpoch(0, ZXID_ZERO))
    cluster.run(0.05)
    assert not observer.received(messages.HistoryRequest)
    assert leader.ctx.phase == "synchronization"

    observer.send(3, messages.AckNewLeader(epoch, ZXID_ZERO))
    cluster.run(0.05)
    assert not leader.ctx.established
    voter.send(3, messages.AckNewLeader(epoch, ZXID_ZERO))
    cluster.run(0.05)
    assert leader.ctx.established
    assert leader.ctx.acked_newleader == {1, 3}

    leader.propose_op(("put", "k", 1))
    cluster.run(0.05)
    zxid = Zxid(epoch, 1)
    proposal = leader.ctx.proposals[zxid]   # the leader's own ACK only
    observer.send(3, messages.Ack(zxid))
    cluster.run(0.05)
    assert proposal.acks == {3}
    assert leader.ctx.acks_received == 1
    assert leader.ctx.commits == 0
    assert not observer.received(messages.Propose)
    voter.send(3, messages.Ack(zxid))
    cluster.run(0.05)
    assert leader.ctx.commits == 1
    # The observer's Phase-3 stream: the commit, as INFORM.
    assert [m.zxid for m in observer.received(messages.Inform)] == [zxid]
