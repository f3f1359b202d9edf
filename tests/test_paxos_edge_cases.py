"""Edge-case tests for the Paxos baseline: preemption, gap filling,
dueling scouts, and recovery re-proposal rules."""

from repro.harness import Cluster, ClusterConfig
from repro.paxos.replica import ROLE_IDLE


def paxos(n=3, seed=0, scripted=True):
    """A Paxos cluster; *scripted* ones only change leader when a test
    scouts (the failure detector's budget is never reached)."""
    zab = {"sync_limit": 10 ** 6} if scripted else {}
    return Cluster(ClusterConfig(
        n_voters=n, seed=seed, protocol="paxos", zab=zab,
    )).start()


def test_preempted_leader_steps_down():
    cluster = paxos(seed=150)
    r1, r2 = cluster.peers[1], cluster.peers[2]
    r1.start_scout()
    cluster.run(0.2)
    assert r1.is_established_leader
    r2.start_scout()
    cluster.run(0.2)
    assert r2.is_established_leader
    # r1 stepped down as soon as it observed the higher ballot (r2's
    # heartbeats carry it); exactly one leader remains.
    assert r1.state == ROLE_IDLE
    leaders = [r for r in cluster.peers.values() if r.is_established_leader]
    assert leaders == [r2]


def test_gap_filling_with_noops():
    cluster = paxos(seed=151)
    r1, r3 = cluster.peers[1], cluster.peers[3]
    r1.start_scout()
    cluster.run(0.2)
    # Proposals at instances 1..3; drop connectivity so only instance
    # ordering at r1's acceptor matters, creating potential gaps after
    # takeover.
    cluster.partition({1}, {2, 3})
    r1.propose_op(("put", "a", 1))
    r1.propose_op(("put", "b", 2))
    cluster.run(0.2)
    cluster.heal()
    r3.start_scout()
    cluster.run(0.5)
    assert r3.is_established_leader
    # Both of r1's values were recovered and re-proposed in order: the
    # final history has no gaps (all instances decided contiguously).
    assert r3.delivered_upto == max(r3.decided)
    states = cluster.states()
    for state in states.values():
        assert state.get("a") == 1 and state.get("b") == 2


def test_dueling_scouts_eventually_converge():
    cluster = paxos(seed=152)
    # Everyone scouts at once; ballots collide, preemption + retries via
    # explicit re-scouting must converge.
    for replica in cluster.peers.values():
        replica.start_scout()
    cluster.run(0.3)
    leaders = [r for r in cluster.peers.values() if r.is_established_leader]
    if not leaders:
        # Highest ballot owner retries once more.
        best = max(
            cluster.peers.values(), key=lambda r: r.ballot
        )
        best.start_scout()
        cluster.run(0.3)
        leaders = [
            r for r in cluster.peers.values() if r.is_established_leader
        ]
    assert len(leaders) == 1
    cluster.submit_and_wait(("put", "k", 1))


def test_auto_scout_timeouts_produce_single_stable_leader():
    cluster = paxos(5, seed=153, scripted=False)
    cluster.run_until_stable(timeout=30)
    # Early leadership may churn once or twice until heartbeats flow;
    # after settling, leadership is unique and stable.
    cluster.run(2.0)
    leaders = [r for r in cluster.peers.values() if r.is_established_leader]
    assert len(leaders) == 1
    settled = leaders[0]
    cluster.run(2.0)
    assert settled.is_established_leader
    assert [r for r in cluster.peers.values() if r.is_established_leader] == [
        settled
    ]


def test_reproposal_keeps_original_txn_identity():
    cluster = paxos(seed=154)
    r1, r3 = cluster.peers[1], cluster.peers[3]
    r1.start_scout()
    cluster.run(0.2)
    cluster.partition({1}, {2, 3})
    r1.propose_op(("put", "a", 1))
    cluster.run(0.2)
    cluster.heal()
    r3.start_scout()
    cluster.run(0.5)
    # The delivered txn still carries r1's epoch-1 identity even though
    # r3 re-proposed it under ballot 2+.
    delivered = [e for e in cluster.trace.deliveries if e.process == 3]
    assert any(
        event.txn_id == "p1.1" and event.epoch == 1 for event in delivered
    )


def test_noop_bodies_do_not_mutate_state():
    cluster = paxos(3, seed=155, scripted=False)
    cluster.run_until_stable(timeout=30)
    leader = cluster.leader()
    noop = leader._make_noop()
    before = dict(leader.sm.as_dict())
    leader.sm.apply(noop.body)
    assert leader.sm.as_dict() == before
