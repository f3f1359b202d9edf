"""Tests for the Paxos baseline, including the paper's counter-example."""

import pytest

from repro import (
    ActionSchedule,
    run_adversarial_campaign,
    replay_schedule,
    shrink_schedule,
)
from repro.common.errors import ConfigError, NotLeaderError
from repro.harness import Cluster, ClusterConfig


def paxos(n=3, seed=50, **zab):
    return Cluster(ClusterConfig(
        n_voters=n, seed=seed, protocol="paxos", zab=zab,
    )).start()


def stable(n=3, seed=50, **zab):
    cluster = paxos(n, seed, **zab)
    cluster.run_until_stable(timeout=30)
    return cluster


def test_leader_emerges_and_commits():
    cluster = stable()
    assert cluster.submit_and_wait(("put", "k", "v"))[0] == "v"
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
        replica for replica in cluster.peers.values()
        if not replica.is_established_leader
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
    delivered = cluster.trace.deliveries_by_process()[leader.peer_id]
    assert [result for result, _zxid in answers] == list(range(5))
    assert [zxid for _result, zxid in answers] \
        == [event.zxid for event in delivered]


def test_failover_elects_new_leader_and_keeps_state():
    cluster = stable(seed=51)
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    old = cluster.leader()
    cluster.crash(old.peer_id)
    new = cluster.run_until_stable(timeout=30)
    assert new.peer_id != old.peer_id
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.run(1.0)
    values = {rid: s.get("x") for rid, s in cluster.states().items()}
    assert all(v == 10 for v in values.values()), values


def test_lagging_learner_catches_up_via_heartbeat():
    cluster = stable(seed=52)
    lagger = next(
        replica for replica in cluster.peers.values()
        if not replica.is_established_leader
    )
    cluster.partition(
        {lagger.peer_id},
        {r for r in cluster.peers if r != lagger.peer_id},
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


def test_recovered_replica_rejoins_and_catches_up():
    # Acceptor and learner state are stable storage; a restart must put
    # the replica back on the network and re-arm its watchdog.
    cluster = stable(seed=5)
    follower = next(
        replica for replica in cluster.peers.values()
        if not replica.is_established_leader
    )
    cluster.crash(follower.peer_id)
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.recover(follower.peer_id)
    cluster.run(1.0)
    assert cluster.network.is_alive(follower.peer_id)
    assert follower.is_active_follower
    assert follower.sm.as_dict() == {"x": 5}
    assert cluster.check_properties().ok


@pytest.mark.parametrize("field,value", [
    ("n_observers", 1),
    ("disk", "model"),
    ("dissemination", "chain"),
    ("metrics", object()),
    ("leader_factory", object),
])
def test_paxos_refuses_what_only_zab_honours(field, value):
    with pytest.raises(ConfigError, match=field):
        ClusterConfig(protocol="paxos", **{field: value})


def test_unknown_protocol_is_refused():
    with pytest.raises(ConfigError, match="unknown protocol"):
        ClusterConfig(protocol="raft")


#: Primary order is what Paxos lacks; it stays a correct atomic broadcast.
_PO_ONLY = {"local_primary_order", "global_primary_order",
            "primary_integrity"}


def test_stock_adversary_breaks_paxos_on_pinned_seeds_and_zab_on_none():
    failing = {}
    for protocol in ("paxos", "zab"):
        outcomes = run_adversarial_campaign(
            range(40), ClusterConfig(protocol=protocol),
        )
        failing[protocol] = [o.seed for o in outcomes if not o.passed]
        for outcome in outcomes:
            assert outcome.error is None and outcome.converged
            assert set(outcome.violations) <= _PO_ONLY
    assert failing == {"paxos": [17, 29], "zab": []}


def test_partition_profile_strands_paxos_seed_3_in_scouting():
    """Witness of the scout hole: a Paxos scout that hears no quorum
    never scouts again, so after E4b's seed-3 partitions all three
    replicas stay ``scouting`` for good.  The replay still judges the
    delivered history.  ROADMAP I step 4 (a scout that retries with a
    higher ballot) is the change that must flip this error."""
    schedule = ActionSchedule.generate_partitions(
        3, n_voters=3, steps=10, step_interval=0.4, op_interval=0.01,
    )
    schedule.meta["protocol"] = "paxos"
    result = replay_schedule(schedule, ClusterConfig(
        zab={"max_outstanding": 8, "sync_limit": 3},
    ))
    assert result.error.startswith("never re-stabilised"), result.error
    assert {peer.state for peer in result.cluster.peers.values()} == {
        "scouting",
    }
    assert result.violations == ["primary_integrity"]
    assert result.signature == ()
    # The stranded run still reports what it delivered.
    assert result.deliveries > 0
    assert result.epochs


def test_health_replay_audits_paxos_for_committed_txn_loss():
    """The loss audit reads the delivered frontier both protocols
    expose, so a Paxos replay with health on is judged like Zab's."""
    schedule = ActionSchedule.generate(0, n_voters=3, steps=4)
    result = replay_schedule(
        schedule, ClusterConfig(protocol="paxos"), health=True,
    )
    assert result.error is None and result.deliveries > 0
    assert result.lost == []
    assert result.passed
    assert result.health is not None


def test_stock_shrinker_reduces_the_unscripted_counterexample():
    schedule = ActionSchedule.generate(17, n_voters=3, steps=10)
    config = ClusterConfig(protocol="paxos")
    baseline = replay_schedule(schedule, config)
    assert baseline.error is None
    assert baseline.violations and set(baseline.violations) <= _PO_ONLY
    result = shrink_schedule(schedule, baseline=baseline, config=config)
    assert len(result.schedule) <= 6
    first = replay_schedule(result.schedule, config)
    second = replay_schedule(result.schedule, config)
    assert not first.passed
    assert first.signature == second.signature == result.signature
    assert replay_schedule(result.schedule, ClusterConfig()).passed


def run_paper_counterexample(seed=4):
    """The paper's Paxos run: primaries P1(e1: A,B), P2(e2: C), then a
    recovery that commits [C, B] — breaking B's dependency on A."""
    cluster = paxos(seed=seed, sync_limit=10 ** 6)
    r1, r2, r3 = (cluster.peers[i] for i in (1, 2, 3))
    r1.start_scout()
    cluster.run(0.1)
    assert r1.is_established_leader
    cluster.partition({1}, {2, 3})
    r1.propose_op(("put", "A", 1))
    r1.propose_op(("incr", "A", 1))     # depends on the put
    cluster.run(0.2)
    r2.start_scout()
    cluster.run(0.2)
    assert r2.is_established_leader
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
