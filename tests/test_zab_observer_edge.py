"""Observer edge cases beyond the happy path."""

import collections

import pytest

from repro.harness import Cluster, ClusterConfig
from repro.obs.trace import Tracer
from repro.zab import messages
from repro.zab.dissemination import DISSEMINATION_TOPOLOGIES


def observer_cluster(seed, **kwargs):
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=1, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_observer_crash_and_recover_catches_up():
    cluster = observer_cluster(210)
    cluster.submit_and_wait(("put", "a", 1))
    cluster.crash(4)
    for i in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.recover(4)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    observer = cluster.peers[4]
    assert observer.sm.read(("get", "x")) == 5
    assert observer.sm.read(("get", "a")) == 1
    cluster.assert_properties()


def test_observer_snap_syncs_when_far_behind():
    cluster = observer_cluster(
        211, zab={"snapshot_every": 20, "snap_sync_threshold": 10},
    )
    cluster.crash(4)
    for i in range(50):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.compact_logs(retain_snapshots=1)
    cluster.recover(4)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    observer = cluster.peers[4]
    assert observer.storage.log.purged_through() is not None
    assert observer.sm.read(("get", "k49")) == 49
    cluster.assert_properties()


def test_observer_probe_retries_until_leader_exists():
    # Boot ONLY the observer first: it probes into the void, then the
    # voters arrive and it must still find the leader.
    cluster = Cluster(ClusterConfig(n_voters=3, n_observers=1, seed=212))
    cluster.peers[4].start()
    cluster.run(1.0)
    assert cluster.peers[4].state == messages.OBSERVING
    assert cluster.peers[4].ctx is None
    for peer_id in (1, 2, 3):
        cluster.peers[peer_id].start()
    cluster.run_until_stable(timeout=30)
    assert cluster.peers[4].is_active_follower


def test_observer_never_wins_election():
    cluster = observer_cluster(213)
    # Even after every voter crash/recover cycle, the observer only ever
    # observes.
    leader_id = cluster.leader().peer_id
    cluster.crash(leader_id)
    cluster.run_until_stable(timeout=30)
    assert cluster.peers[4].state == messages.OBSERVING
    assert cluster.leader().peer_id != 4


def test_observer_does_not_ack_proposals():
    cluster = observer_cluster(214)
    before = dict(cluster.network.stats.by_type)
    for i in range(10):
        cluster.submit_and_wait(("put", "k", i))
    cluster.run(0.3)
    stats = cluster.network.stats.by_type
    acks = stats.get("Ack", 0) - before.get("Ack", 0)
    informs = stats.get("Inform", 0) - before.get("Inform", 0)
    # 2 follower acks per op; the observer contributes none.
    assert acks == 20
    assert informs == 10


def test_observer_applies_a_frame_of_informs():
    # A burst five times the window: each flush-wide ACK commits a run of
    # txns and frees the window for new PROPOSEs in the same leader
    # event, so the observer gets that run's INFORMs as one Frame, whose
    # members it must dispatch through its own table.
    tracer = Tracer(kinds=("net.deliver", "peer.looking"))
    cluster = observer_cluster(216, tracer=tracer, disk="model",
                               zab={"max_outstanding": 8})
    leader = cluster.leader()
    committed = []
    for i in range(40):
        leader.propose_op(("put", "k%d" % (i % 7), i),
                          callback=lambda _r, zxid: committed.append(zxid))
    assert cluster.run_until(lambda: len(committed) == 40, timeout=10.0)
    cluster.run(0.1)
    observer = cluster.peers[4]
    mine = [e for e in tracer.events if e.node == 4]
    assert [e for e in mine if e.fields.get("type") == "Frame"]
    assert [e for e in mine if e.kind == "peer.looking"] == []
    assert observer.last_committed == leader.last_committed
    assert observer.sm.as_dict() == leader.sm.as_dict()
    cluster.assert_properties()


def test_recovering_observer_joins_under_load():
    # 5,000 writes/s leave no quiet sync window: commits land between
    # the leader's NEWLEADER and the observer's UPTODATE every time.
    # The observer must take them as INFORMs and join at its first
    # sync, not find a gap and re-sync for as long as the load lasts.
    tracer = Tracer(kinds=("peer.looking",))
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=2, seed=215, tracer=tracer)).start()
    cluster.run_until_stable(timeout=30)
    observer = cluster.peers[5]
    for i in range(2000):
        if i == 250:
            cluster.crash(5)
        elif i == 750:
            cluster.recover(5)
        cluster.submit(("put", "k%d" % (i % 10), i))
        cluster.run(0.0002)
    assert observer.is_active_follower
    cluster.run(0.05)
    assert observer.last_committed == cluster.leader().last_committed
    assert [e for e in tracer.events if e.node == 5] == []
    cluster.assert_properties()


#: Messages per type each observer of test_observer_wire_traffic_is_pinned
#: sent and received.  The same under every topology: INFORM and PING are
#: leader-direct and observers sit in no relay plan.
_OBSERVER_WIRE = {
    (4, "sent"): {"AckEpoch": 1, "AckNewLeader": 1, "FollowerInfo": 1,
                  "Notification": 6, "Pong": 34},
    (4, "received"): {"Inform": 200, "NewEpoch": 1, "NewLeader": 1,
                      "Notification": 3, "Ping": 34, "SyncStart": 1,
                      "UpToDate": 1},
    (5, "sent"): {"AckEpoch": 2, "AckNewLeader": 2, "FollowerInfo": 2,
                  "Notification": 9, "Pong": 33},
    (5, "received"): {"Inform": 150, "NewEpoch": 2, "NewLeader": 2,
                      "Notification": 6, "Ping": 33, "SyncStart": 2,
                      "SyncTxn": 51, "UpToDate": 2},
}


@pytest.mark.parametrize("topology", DISSEMINATION_TOPOLOGIES)
def test_observer_wire_traffic_is_pinned(topology):
    tracer = Tracer(kinds=("net.send", "net.deliver", "peer.looking"))
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=2, seed=215, dissemination=topology,
        tracer=tracer)).start()
    cluster.run_until_stable(timeout=30)
    # 200 writes at 1 kHz.  Observer 5 is down for writes 50-99 and
    # syncs once on recovery: the commits made during that sync reach it
    # as INFORMs after NEWLEADER, so it joins with no gap and never goes
    # back to LOOKING.  Writes then pause for ten pings, with both
    # observers caught up.
    for i in range(200):
        if i == 50:
            cluster.crash(5)
        elif i == 100:
            cluster.recover(5)
        elif i == 102:
            cluster.run(0.5)
        cluster.submit(("put", "k%d" % (i % 10), i))
        cluster.run(0.001)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    wire = collections.defaultdict(collections.Counter)
    looking = collections.Counter()
    for event in tracer.events:
        if event.node not in (4, 5):
            continue
        if event.kind == "peer.looking":
            looking[event.node] += 1
        else:
            way = "sent" if event.kind == "net.send" else "received"
            wire[event.node, way][event.fields["type"]] += 1
    assert wire == _OBSERVER_WIRE
    assert looking == {}
    for peer_id in (4, 5):
        assert cluster.peers[peer_id].sm.read(("get", "k9")) == 199
    cluster.assert_properties()
