"""Tests for the sync()-style fresh-read path.

ZooKeeper reads are served locally and may be stale; a client that needs
freshness issues ``sync()`` first.  These tests pin down the guarantee:
a sync-read observes at least every transaction the leader had committed
when the sync was issued.
"""

import pytest

from repro.harness import Cluster, ClusterConfig
from repro.net import NetworkConfig


def stable_cluster(seed=120, **kwargs):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def lagging_follower(cluster):
    """Make a follower lag: cut its link from the leader temporarily."""
    leader = cluster.leader()
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    return leader, follower


def test_sync_read_on_leader_waits_for_pipeline():
    cluster = stable_cluster()
    leader = cluster.leader()
    results = []
    # Queue several writes, then a sync-read; it must see all of them.
    for i in range(10):
        cluster.submit(("put", "k", i))
    leader.sync_read(("get", "k"), results.append)
    cluster.run(1.0)
    assert results == [9]


def test_plain_follower_read_can_be_stale_but_sync_read_is_fresh():
    cluster = stable_cluster(
        net=NetworkConfig(latency=0.002, jitter=0.0)
    )
    leader, follower = lagging_follower(cluster)
    cluster.submit_and_wait(("put", "k", "old"))
    cluster.run(0.5)

    # Delay the leader->follower link so the follower lags visibly
    # (but below the staleness timeout, so it keeps following).
    cluster.network.set_link_latency(
        leader.peer_id, follower.peer_id, 0.12, symmetric=False
    )
    done = []
    cluster.submit(("put", "k", "new"), callback=lambda r, z:
                   done.append(r))
    cluster.run_until(lambda: done, timeout=10)

    # Leader committed "new" (quorum = leader + the fast follower), but
    # our slow follower still serves the stale local value...
    stale = follower.sm.read(("get", "k"))
    assert stale == "old"

    # ...while a sync-read blocks until it has caught up.
    fresh = []
    follower.sync_read(("get", "k"), fresh.append)
    cluster.run(1.0)
    assert fresh == ["new"]


def test_sync_read_fails_cleanly_when_not_serving():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=121))
    cluster.peers[1].start()
    cluster.run(0.5)
    results = []
    cluster.peers[1].sync_read(("get", "k"), results.append)
    assert results == [("error", "not-serving")]


def test_sync_read_fails_on_leader_loss():
    cluster = stable_cluster(seed=122)
    leader, follower = lagging_follower(cluster)
    cluster.submit_and_wait(("put", "k", 1))
    # Sever the follower<->leader path, then issue a sync read: the
    # reply can never arrive and the follower eventually abandons the
    # leader, failing the pending read.
    cluster.network.partitions.cut_link(leader.peer_id, follower.peer_id)
    results = []
    follower.sync_read(("get", "k"), results.append)
    cluster.run(3.0)
    assert results == [("error", "connection-lost")]


@pytest.mark.parametrize("observer", [False, True],
                         ids=["follower", "observer"])
def test_sync_read_sees_prior_writes_after_quiesce(observer):
    cluster = stable_cluster(seed=123, n_observers=int(observer))
    follower = next(
        peer for peer in cluster.peers.values()
        if peer.is_active_follower and peer.is_observer == observer
    )
    for i in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.run(0.5)
    results = []
    follower.sync_read(("get", "x"), results.append)
    cluster.run(0.5)
    assert results == [5]
