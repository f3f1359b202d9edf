"""Integration tests for Fast Leader Election.

FLE is exercised through whole clusters: the observable contract is *who*
gets elected and that the ensemble converges, not the internal vote
bookkeeping.
"""

from repro.app.statemachine import Txn
from repro.harness import Cluster, ClusterConfig
from repro.zab import messages
from repro.zab.zxid import Zxid


def seed_txn(name):
    """A minimal valid KV transaction for pre-seeding logs."""
    return Txn(name, name, None, 0, ("set", name, 1), 16)


def test_three_peers_elect_exactly_one_leader():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=2)).start()
    cluster.run_until_stable(timeout=30)
    leaders = [
        peer for peer in cluster.peers.values()
        if peer.state == messages.LEADING
    ]
    assert len(leaders) == 1


def test_highest_id_wins_fresh_election():
    # With identical (epoch, zxid) the server id breaks ties.
    cluster = Cluster(ClusterConfig(n_voters=5, seed=3)).start()
    leader = cluster.run_until_stable(timeout=30)
    assert leader.peer_id == 5


def test_peer_with_most_advanced_log_wins():
    # Reachable state: a quorum accepted epoch 1, peer 1 logged the most.
    cluster = Cluster(ClusterConfig(n_voters=3, seed=4))
    for peer_id in (1, 2, 3):
        cluster.storages[peer_id].epochs.set_accepted_epoch(1)
        cluster.storages[peer_id].epochs.set_current_epoch(1)
    cluster.storages[1].log.append(Zxid(1, 1), seed_txn("pre"), size=10)
    cluster.start()
    leader = cluster.run_until_stable(timeout=30)
    assert leader.peer_id == 1


def test_higher_epoch_beats_higher_zxid():
    # Peer 1: old epoch, long log.  Peer 2: newer epoch, short log.
    cluster = Cluster(ClusterConfig(n_voters=3, seed=5))
    for peer_id in (1, 2, 3):
        cluster.storages[peer_id].epochs.set_accepted_epoch(2)
    cluster.storages[1].log.append(Zxid(1, 50), seed_txn("old"), size=10)
    cluster.storages[1].epochs.set_current_epoch(1)
    cluster.storages[2].log.append(Zxid(2, 1), seed_txn("new"), size=10)
    cluster.storages[2].epochs.set_current_epoch(2)
    cluster.start()
    leader = cluster.run_until_stable(timeout=30)
    assert leader.peer_id == 2


def test_minority_cannot_elect():
    cluster = Cluster(ClusterConfig(n_voters=5, seed=6))
    for peer_id in (3, 4, 5):
        cluster.peers[peer_id].crashed = True  # never started
    for peer_id in (1, 2):
        cluster.peers[peer_id].start()
    cluster.run(5.0)
    assert cluster.leader() is None
    for peer_id in (1, 2):
        assert cluster.peers[peer_id].state == messages.LOOKING


def test_rejoining_peer_finds_established_leader():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=7)).start()
    leader = cluster.run_until_stable(timeout=30)
    follower_id = next(
        peer_id for peer_id in cluster.peers
        if peer_id != leader.peer_id
    )
    cluster.crash(follower_id)
    cluster.run(1.0)
    cluster.recover(follower_id)
    cluster.run_until_stable(timeout=30)
    rejoined = cluster.peers[follower_id]
    assert rejoined.state == messages.FOLLOWING
    assert rejoined.leader_id == leader.peer_id


def test_quorum_reelects_after_leader_crash():
    cluster = Cluster(ClusterConfig(n_voters=5, seed=8)).start()
    first = cluster.run_until_stable(timeout=30)
    cluster.crash(first.peer_id)
    second = cluster.run_until_stable(timeout=30)
    assert second.peer_id != first.peer_id


def test_single_peer_ensemble_elects_itself():
    cluster = Cluster(ClusterConfig(n_voters=1, seed=9)).start()
    leader = cluster.run_until_stable(timeout=30)
    assert leader.peer_id == 1


def test_epoch_increases_across_leader_changes():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=10)).start()
    first = cluster.run_until_stable(timeout=30)
    epoch1 = first.storage.epochs.current_epoch
    cluster.crash(first.peer_id)
    second = cluster.run_until_stable(timeout=30)
    epoch2 = second.storage.epochs.current_epoch
    assert epoch2 > epoch1
