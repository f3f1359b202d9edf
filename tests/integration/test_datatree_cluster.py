"""End-to-end tests of the data-tree service on a live ensemble:
locks, watches, session close, and failover."""

from repro.app import DataTreeStateMachine, WatchManager
from repro.harness import Cluster, ClusterConfig


def tree_cluster(seed, **kwargs):
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=seed, app_factory=DataTreeStateMachine, **kwargs
    )).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_replicated_tree_converges():
    cluster = tree_cluster(90)
    cluster.submit_and_wait(("create", "/app", b"root", "", None))
    cluster.submit_and_wait(("create", "/app/a", b"1", "", None))
    cluster.submit_and_wait(("set", "/app/a", b"2", -1))
    cluster.run(0.5)
    for peer in cluster.peers.values():
        if not peer.crashed and peer.sm is not None:
            assert peer.sm.read(("get", "/app/a")) == b"2"
            assert peer.sm.read(("children", "/app")) == ["a"]
    cluster.assert_properties()


def test_sequential_nodes_are_globally_unique_under_contention():
    cluster = tree_cluster(91)
    cluster.submit_and_wait(("create", "/q", b"", "", None))
    paths = []
    done = []
    for _ in range(20):
        cluster.submit(
            ("create", "/q/item-", b"", "s", None),
            callback=lambda result, zxid: (paths.append(result),
                                           done.append(True)),
        )
    cluster.run_until(lambda: len(done) == 20, timeout=10)
    assert len(set(paths)) == 20
    assert paths == sorted(paths)  # commit order == sequence order


def test_watches_fire_on_every_replica_independently():
    cluster = tree_cluster(93)
    cluster.submit_and_wait(("create", "/cfg", b"v0", "", None))
    cluster.run(0.5)
    fired = {}
    managers = []
    for peer_id, peer in cluster.peers.items():
        manager = WatchManager(peer.sm)
        manager.watch_data(
            "/cfg",
            lambda event, path, pid=peer_id: fired.setdefault(pid, event),
        )
        managers.append(manager)
    cluster.submit_and_wait(("set", "/cfg", b"v1", -1))
    cluster.run(0.5)
    assert set(fired.values()) == {"changed"}
    assert len(fired) == 3


def test_lock_service_failover_keeps_holder():
    cluster = tree_cluster(94)
    cluster.submit_and_wait(("create", "/locks", b"", "", None))
    cluster.submit_and_wait(("create_session", "s1", 30.0))
    cluster.submit_and_wait(("create_session", "s2", 30.0))
    first, _ = cluster.submit_and_wait(
        ("create", "/locks/c-", b"alice", "es", "s1")
    )
    second, _ = cluster.submit_and_wait(
        ("create", "/locks/c-", b"bob", "es", "s2")
    )
    assert first < second
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    leader = cluster.leader()
    children = leader.sm.read(("children", "/locks"))
    assert len(children) == 2
    assert first.endswith(children[0])  # alice still holds the lock
    # Releasing via session close passes the lock to bob.
    cluster.submit_and_wait(("close_session", "s1"))
    cluster.run(0.5)
    children = leader.sm.read(("children", "/locks"))
    assert len(children) == 1
    assert second.endswith(children[0])
    cluster.assert_properties()


def test_tree_state_survives_snap_sync():
    cluster = tree_cluster(
        95, zab={"snapshot_every": 20, "snap_sync_threshold": 10},
    )
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    cluster.crash(follower.peer_id)
    cluster.submit_and_wait(("create", "/data", b"", "", None))
    for i in range(50):
        cluster.submit_and_wait(
            ("create", "/data/n%02d" % i, bytes([i]), "", None)
        )
    cluster.compact_logs(retain_snapshots=1)
    cluster.recover(follower.peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    rejoined = cluster.peers[follower.peer_id]
    assert rejoined.sm.read(("children", "/data")) == [
        "n%02d" % i for i in range(50)
    ]
    cluster.assert_properties()
