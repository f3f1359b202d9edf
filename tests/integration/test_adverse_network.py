"""Liveness and safety under a misbehaving transport.

Zab's safety must not depend on the network being polite; liveness just
needs partial synchrony.  These runs push loss, jitter, and repeated
partitions well past comfortable and check that nothing breaks — only
slows down.
"""

import pytest

from repro.harness import Cluster, ClusterConfig
from repro.net import NetworkConfig


def test_sustained_message_loss_keeps_safety_and_eventually_commits():
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=240,
        net=NetworkConfig(loss_rate=0.05),
        # Generous timeouts so retransmission-free Zab still detects
        # liveness correctly under loss.
        zab={"tick": 0.1, "sync_limit": 8, "init_limit": 20},
    )).start()
    cluster.run_until_stable(timeout=120)
    committed = []
    for i in range(20):
        try:
            cluster.submit(("incr", "x", 1),
                           callback=lambda r, z: committed.append(r))
        except Exception:
            pass
        cluster.run(0.2)
    cluster.run(5.0)
    assert committed, "nothing committed under 5% loss"
    cluster.assert_properties()


def test_extreme_jitter_preserves_fifo_and_order():
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=241,
        net=NetworkConfig(latency=0.001, jitter=0.02),
        zab={"tick": 0.2, "sync_limit": 8},
    )).start()
    cluster.run_until_stable(timeout=120)
    order = []
    for i in range(30):
        cluster.submit(("put", "seq", i),
                       callback=lambda r, z, i=i: order.append(i))
    cluster.run_until(lambda: len(order) == 30, timeout=60)
    assert order == list(range(30))
    cluster.assert_properties()


def test_partition_storm_then_calm():
    cluster = Cluster(ClusterConfig(n_voters=5, seed=242)).start()
    cluster.run_until_stable(timeout=60)
    cluster.submit_and_wait(("put", "before", 1))
    rng = cluster.sim.random.stream("storm")
    for _ in range(12):
        victim = rng.choice(list(cluster.peers))
        cluster.partition({victim})
        cluster.run(0.25)
        cluster.heal()
        cluster.run(0.15)
    cluster.run_until_stable(timeout=60)
    cluster.submit_and_wait(("put", "after", 2))
    cluster.run(1.0)
    for state in cluster.states().values():
        assert state["before"] == 1 and state["after"] == 2
    cluster.assert_properties()


def test_slow_asymmetric_link_does_not_break_anything():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=243)).start()
    cluster.run_until_stable(timeout=30)
    leader_id = cluster.leader().peer_id
    follower_id = next(
        peer_id for peer_id, peer in cluster.peers.items()
        if peer.is_active_follower
    )
    # Acks crawl back at 150ms while proposals arrive fast.
    cluster.network.set_link_latency(
        follower_id, leader_id, 0.15, symmetric=False
    )
    for i in range(10):
        cluster.submit_and_wait(("incr", "x", 1), timeout=30)
    cluster.run(2.0)
    cluster.assert_properties()


@pytest.mark.parametrize("loss", [0.0, 0.02])
def test_loss_changes_liveness_not_outcomes(loss):
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=244,
        net=NetworkConfig(loss_rate=loss),
        zab={"tick": 0.1, "sync_limit": 8, "init_limit": 20},
    )).start()
    cluster.run_until_stable(timeout=120)
    done = []
    for i in range(10):
        cluster.submit(("incr", "n", 1),
                       callback=lambda r, z: done.append(r))
        cluster.run(0.3)
    cluster.run(5.0)
    # Whatever committed, committed in order with correct results.
    assert done == list(range(1, len(done) + 1))
    cluster.assert_properties()
