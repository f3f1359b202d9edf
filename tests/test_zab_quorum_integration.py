"""End-to-end runs with non-majority quorum systems.

ZooKeeper supports weighted and hierarchical quorums; Zab is correct for
any intersecting quorum system.  These tests run full clusters with
custom verifiers and check both behaviour and the PO properties.
"""

from repro.harness import Cluster, ClusterConfig
from repro.zab import HierarchicalQuorum, WeightedQuorum


def test_weighted_quorum_zero_weight_voter_is_optional():
    # Peers 1..3 carry all the weight; peer 4 participates but its vote
    # never matters for quorum.
    quorum = WeightedQuorum({1: 1, 2: 1, 3: 1, 4: 0})
    cluster = Cluster(ClusterConfig(n_voters=4, seed=70, zab={"quorum": quorum})).start()
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "a", 1))
    # Peer 4 wins the initial election on id tie-break; crashing it must
    # not block progress — the weighted majority lives in peers 1..3.
    cluster.crash(4)
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "b", 2))
    cluster.run(1.0)
    cluster.assert_properties()


def test_weighted_quorum_heavy_voter_blocks_when_down():
    # Peer 3 holds 3 of 5 weight: no quorum exists without it.
    quorum = WeightedQuorum({1: 1, 2: 1, 3: 3})
    cluster = Cluster(ClusterConfig(n_voters=3, seed=71, zab={"quorum": quorum})).start()
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "a", 1))
    cluster.crash(3)
    cluster.run(3.0)
    assert cluster.leader() is None
    cluster.recover(3)
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "b", 2))
    cluster.assert_properties()


def test_hierarchical_quorum_needs_majority_of_groups():
    # Two 2-peer groups + one 1-peer group; a quorum needs majorities in
    # 2 of the 3 groups.
    quorum = HierarchicalQuorum({
        "g1": {1: 1, 2: 1},
        "g2": {3: 1, 4: 1},
        "g3": {5: 1},
    })
    cluster = Cluster(ClusterConfig(n_voters=5, seed=72, zab={"quorum": quorum})).start()
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "a", 1))
    # Losing one full group still leaves groups g1 and g3.
    cluster.crash(3)
    cluster.crash(4)
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "b", 2))
    cluster.run(1.0)
    cluster.assert_properties()


def test_hierarchical_quorum_blocks_without_group_majorities():
    quorum = HierarchicalQuorum({
        "g1": {1: 1, 2: 1},
        "g2": {3: 1, 4: 1},
        "g3": {5: 1},
    })
    cluster = Cluster(ClusterConfig(n_voters=5, seed=73, zab={"quorum": quorum})).start()
    cluster.run_until_stable(timeout=30)
    # Kill one peer of each 2-peer group and the whole of g3: no two
    # groups can form internal majorities (g1 and g2 are at 1 of 2).
    cluster.crash(2)
    cluster.crash(4)
    cluster.crash(5)
    cluster.run(3.0)
    assert cluster.leader() is None


def test_metrics_counters_exposed():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=74)).start()
    cluster.run_until_stable(timeout=30)
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    leader = cluster.leader()
    metrics = leader.metrics()
    assert metrics["state"] == "leading"
    assert metrics["commits"] == 5
    assert metrics["delivered"] >= 5
    assert metrics["times_led"] == 1
    assert metrics["epoch_persists"] >= 2
    # Followers were synced with (empty) DIFFs at establishment.
    assert metrics["sync_modes"].get("diff", 0) >= 2
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    fm = follower.metrics()
    assert fm["state"] == "following"
    assert "commits" not in fm
