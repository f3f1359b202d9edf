"""Regression tests for proposal-gap detection.

Zab assumes reliable FIFO channels; a transport that silently drops one
PROPOSE would otherwise let a follower log past the hole (zxid
monotonicity alone does not forbid it) and deliver a history shifted by
one — a total-order violation this repo's adversarial tests caught
during development.  The follower now treats a sequence gap as a broken
channel: it abandons the leader and re-syncs, exactly the effect a TCP
reset has in ZooKeeper.
"""

from repro.harness import Cluster, ClusterConfig
from repro.zab import messages
from repro.zab.follower import _contiguous
from repro.zab.zxid import Zxid


def test_contiguity_predicate():
    assert _contiguous(None, Zxid(1, 1))
    assert not _contiguous(None, Zxid(1, 2))
    assert _contiguous(Zxid(1, 3), Zxid(1, 4))
    assert not _contiguous(Zxid(1, 3), Zxid(1, 5))
    assert _contiguous(Zxid(1, 9), Zxid(2, 1))   # epoch change restarts
    assert not _contiguous(Zxid(1, 9), Zxid(2, 2))


def drop_one_propose(cluster, victim_id):
    """Arrange for exactly one future Propose to the victim to vanish."""
    network = cluster.network
    original = network.send
    state = {"dropped": False}

    def lossy(src, dst, payload):
        if (
            not state["dropped"]
            and dst == victim_id
            and isinstance(payload, messages.Propose)
        ):
            state["dropped"] = True
            network.stats.record_drop()
            return None
        return original(src, dst, payload)

    network.send = lossy
    return state


def test_single_dropped_propose_triggers_resync_not_divergence():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=250)).start()
    cluster.run_until_stable(timeout=30)
    for i in range(3):
        cluster.submit_and_wait(("put", "k", i))
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    state = drop_one_propose(cluster, follower.peer_id)
    for i in range(3, 8):
        cluster.submit_and_wait(("put", "k", i))
    assert state["dropped"]
    # The follower noticed the hole, re-entered election, and re-synced.
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    assert "gap" in follower.last_looking_reason
    for peer in cluster.peers.values():
        assert peer.sm.read(("get", "k")) == 7
    cluster.assert_properties()


def test_dropped_propose_history_never_skips():
    """The checker-level statement of the bug: no replica's history may
    skip a transaction, even when the transport drops a proposal."""
    cluster = Cluster(ClusterConfig(n_voters=3, seed=251)).start()
    cluster.run_until_stable(timeout=30)
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    drop_one_propose(cluster, follower.peer_id)
    for i in range(10):
        cluster.submit_and_wait(("incr", "n", 1))
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    report = cluster.check_properties()
    assert report.ok, report.violations[:5]
    states = {
        peer_id: peer.sm.read(("get", "n"))
        for peer_id, peer in cluster.peers.items()
        if peer.sm is not None
    }
    assert set(states.values()) == {10}, states
