"""Tests for the Paxos baseline, including the paper's counter-example."""

import pytest

from repro.common.errors import NotLeaderError
from repro.paxos import PaxosCluster


def stable(n=3, seed=50, **kwargs):
    cluster = PaxosCluster(n, seed=seed, **kwargs).start()
    cluster.run_until_leader(timeout=30)
    return cluster


def test_leader_emerges_and_commits():
    cluster = stable()
    assert cluster.submit_and_wait(("put", "k", "v")) == "v"
    cluster.run(0.5)
    assert all(s == {"k": "v"} for s in cluster.states().values())


def test_stable_run_satisfies_all_properties():
    cluster = stable()
    for _ in range(20):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.run(0.5)
    report = cluster.check_properties()
    assert report.ok, report.violations[:3]


def test_pipelined_commits_preserve_order():
    cluster = stable(max_outstanding=16)
    leader = cluster.leader()
    order = []
    for i in range(20):
        leader.propose_op(("put", "k", i),
                         callback=lambda r, z, i=i: order.append(i))
    cluster.run_until(lambda: len(order) == 20, timeout=10)
    assert order == list(range(20))


def test_submit_on_non_leader_raises():
    cluster = stable()
    idle = next(
        replica for replica in cluster.replicas.values()
        if not replica.is_leading
    )
    with pytest.raises(NotLeaderError):
        idle.propose_op(("put", "k", 1))


def test_backpressure_queues_beyond_window():
    cluster = stable(max_outstanding=2)
    leader = cluster.leader()
    done = []
    for i in range(10):
        leader.propose_op(("put", "k%d" % i, i),
                         callback=lambda r, z: done.append(r))
    assert len(leader._inflight) <= 2
    cluster.run_until(lambda: len(done) == 10, timeout=10)


def test_propose_op_calls_back_with_the_delivered_zxid():
    # Zab's contract: callback(result, zxid), the zxid being the one the
    # checker trace records for the proposer's own delivery.
    cluster = stable()
    leader = cluster.leader()
    answers = []
    for i in range(5):
        leader.propose_op(("put", "k%d" % i, i),
                          callback=lambda r, z: answers.append((r, z)))
    cluster.run_until(lambda: len(answers) == 5, timeout=10)
    delivered = cluster.trace.deliveries_by_process()[leader.replica_id]
    assert [result for result, _zxid in answers] == list(range(5))
    assert [zxid for _result, zxid in answers] \
        == [event.zxid for event in delivered]


def test_failover_elects_new_leader_and_keeps_state():
    cluster = stable(seed=51)
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    old = cluster.leader()
    cluster.crash(old.replica_id)
    new = cluster.run_until_leader(timeout=30)
    assert new.replica_id != old.replica_id
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.run(1.0)
    values = {rid: s.get("x") for rid, s in cluster.states().items()}
    assert all(v == 10 for v in values.values()), values


def test_lagging_learner_catches_up_via_heartbeat():
    cluster = stable(seed=52)
    lagger = next(
        replica for replica in cluster.replicas.values()
        if not replica.is_leading
    )
    cluster.partition(
        {lagger.replica_id},
        {r for r in cluster.replicas if r != lagger.replica_id},
    )
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.heal()
    cluster.run_until(
        lambda: lagger.delivered_upto
        == cluster.leader().delivered_upto,
        timeout=30,
    )
    assert lagger.sm.as_dict()["x"] == 5


def run_paper_counterexample(seed=4):
    """The paper's Paxos run: primaries P1(e1: A,B), P2(e2: C), then a
    recovery that commits [C, B] — breaking B's dependency on A."""
    cluster = PaxosCluster(3, seed=seed, auto_scout=False).start()
    r1, r2, r3 = (cluster.replicas[i] for i in (1, 2, 3))
    r1.start_scout()
    cluster.run(0.1)
    assert r1.is_leading
    cluster.partition({1}, {2, 3})
    r1.propose_op(("put", "A", 1))
    r1.propose_op(("incr", "A", 1))     # depends on the put
    cluster.run(0.2)
    r2.start_scout()
    cluster.run(0.2)
    assert r2.is_leading
    r2.propose_op(("put", "C", 100))
    cluster.run(0.2)
    cluster.crash(2)
    cluster.heal()
    r3.start_scout()
    cluster.run(1.0)
    return cluster


def test_paper_counterexample_violates_primary_order():
    cluster = run_paper_counterexample()
    report = cluster.check_properties()
    violated = report.violated_properties()
    assert "local_primary_order" in violated
    assert "global_primary_order" in violated
    assert "primary_integrity" in violated
    # Total order and agreement still hold: Paxos is a correct atomic
    # broadcast; what it lacks is primary order.
    assert "total_order" not in violated
    assert "agreement" not in violated
    assert "integrity" not in violated


def test_paper_counterexample_corrupts_dependent_state():
    cluster = run_paper_counterexample()
    states = cluster.states()
    # The incr's delta ("set A 2") materialised without its dependency
    # ("put A 1") ever committing: a lost update made visible.
    for state in states.values():
        assert state.get("A") == 2
    # ... yet txn p1.1 (the put) was never delivered anywhere.
    delivered = cluster.trace.delivered_txn_ids()
    assert "p1.1" not in delivered
    assert "p1.2" in delivered
