"""Integration tests for the broadcast phase (Phase 3)."""

import pytest

from repro.common.errors import NotLeaderError
from repro.harness import Cluster, ClusterConfig
from repro.net import NetworkConfig


def stable_cluster(n=3, seed=20, **zab):
    cluster = Cluster(ClusterConfig(n_voters=n, seed=seed, zab=zab)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_committed_write_reaches_every_replica():
    cluster = stable_cluster()
    cluster.submit_and_wait(("put", "k", "v"))
    cluster.run(1.0)
    assert all(
        state == {"k": "v"} for state in cluster.states().values()
    )


def test_commit_callback_carries_result_and_zxid():
    cluster = stable_cluster()
    result, zxid = cluster.submit_and_wait(("put", "n", 41))
    assert result == 41
    result, zxid2 = cluster.submit_and_wait(("incr", "n", 1))
    assert result == 42
    assert zxid2 > zxid
    assert zxid2.epoch == zxid.epoch


def test_zxids_are_consecutive_within_epoch():
    cluster = stable_cluster()
    zxids = [cluster.submit_and_wait(("incr", "c", 1))[1]
             for _ in range(5)]
    counters = [z.counter for z in zxids]
    assert counters == list(range(counters[0], counters[0] + 5))


def test_state_dependent_ops_resolve_against_pipeline():
    # Many outstanding incrs must still produce the correct final sum:
    # the primary prepares each against its speculative state.
    cluster = stable_cluster()
    done = []
    for _ in range(50):
        cluster.submit(("incr", "total", 1), callback=lambda r, z:
                       done.append(r))
    cluster.run_until(lambda: len(done) == 50, timeout=10)
    assert done[-1] == 50
    cluster.run(0.5)
    assert all(
        state["total"] == 50 for state in cluster.states().values()
    )


def test_propose_on_follower_raises():
    cluster = stable_cluster()
    follower = next(
        peer for peer in cluster.peers.values()
        if peer.is_active_follower
    )
    with pytest.raises(NotLeaderError):
        follower.propose_op(("put", "x", 1))


def test_max_outstanding_backpressure():
    cluster = stable_cluster(max_outstanding=2)
    done = []
    for i in range(20):
        cluster.submit(("put", "k%d" % i, i), callback=lambda r, z:
                       done.append(z))
    leader = cluster.leader()
    assert len(leader.ctx.proposals) <= 2
    cluster.run_until(lambda: len(done) == 20, timeout=10)
    # All committed, in zxid order.
    assert [z.counter for z in done] == sorted(z.counter for z in done)


def test_commit_order_matches_proposal_order():
    cluster = stable_cluster()
    commits = []
    for i in range(10):
        cluster.submit(("put", "k", i), callback=lambda r, z, i=i:
                       commits.append(i))
    cluster.run_until(lambda: len(commits) == 10, timeout=10)
    assert commits == list(range(10))


def test_batching_still_commits_everything():
    # 30 writes submitted at one instant leave the leader as one frame
    # per follower, and every one of them commits, in order.
    cluster = stable_cluster()
    done = []
    for i in range(30):
        cluster.submit(("incr", "b", 1), callback=lambda r, z:
                       done.append(r))
    cluster.run_until(lambda: len(done) == 30, timeout=10)
    assert done == list(range(1, 31))
    assert cluster.network.stats.by_type.get("Frame", 0) >= 2
    cluster.run(0.5)
    cluster.assert_properties()


def test_follower_local_read_via_peer():
    cluster = stable_cluster()
    cluster.submit_and_wait(("put", "k", "v"))
    cluster.run(0.5)
    follower = next(
        peer for peer in cluster.peers.values()
        if peer.is_active_follower
    )
    assert follower.sm.read(("get", "k")) == "v"


def test_broadcast_properties_hold_under_load():
    cluster = stable_cluster(n=5, seed=21)
    done = []
    for i in range(100):
        cluster.submit(("incr", "x", 1), callback=lambda r, z:
                       done.append(r))
    cluster.run_until(lambda: len(done) == 100, timeout=20)
    cluster.run(1.0)
    cluster.assert_properties()


def test_lossy_network_preserves_safety():
    # Zab assumes reliable channels for liveness; safety must survive
    # a misbehaving transport anyway.
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=22,
        net=NetworkConfig(loss_rate=0.02),
    )).start()
    cluster.run_until_stable(timeout=60)
    submitted = 0
    for i in range(30):
        try:
            cluster.submit(("incr", "x", 1))
            submitted += 1
        except Exception:
            pass
        cluster.run(0.05)
    cluster.run(3.0)
    report = cluster.check_properties()
    assert report.ok, report.violations[:5]
