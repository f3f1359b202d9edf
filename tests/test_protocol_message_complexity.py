"""Protocol message-complexity tests.

Zab's broadcast phase costs, per committed transaction in an n-peer
ensemble with a stable leader: (n-1) PROPOSE, (n-1) ACK, (n-1) COMMIT.
The per-type network accounting makes this directly checkable — a
regression that, say, re-sends proposals or commits would show up here
before it shows up in any benchmark.
"""

import pytest

from repro.harness import Cluster, ClusterConfig
from repro.net import Network, NetworkConfig
from repro.sim import Simulator


def run_quiet_broadcasts(n_voters, ops, seed=110):
    """Cluster with heartbeats effectively disabled during measurement."""
    cluster = Cluster(ClusterConfig(n_voters=n_voters, seed=seed)).start()
    cluster.run_until_stable(timeout=30)
    before = dict(cluster.network.stats.by_type)
    for i in range(ops):
        cluster.submit_and_wait(("put", "k", i))
    cluster.run(0.2)
    after = cluster.network.stats.by_type
    return {
        key: after[key] - before.get(key, 0)
        for key in after
        if after[key] != before.get(key, 0)
    }


@pytest.mark.parametrize("n_voters", [3, 5])
def test_broadcast_message_counts(n_voters):
    ops = 20
    delta = run_quiet_broadcasts(n_voters, ops)
    fanout = n_voters - 1
    assert delta["Propose"] == ops * fanout
    assert delta["Commit"] == ops * fanout
    # Each follower acks each proposal exactly once (the leader's own
    # "ack" is a local log callback, not a message).
    assert delta["Ack"] == ops * fanout
    # No re-elections and no re-syncs happened mid-run.
    assert "Notification" not in delta
    assert "SyncTxn" not in delta


def test_proposal_bytes_dominate_commit_bytes():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=111)).start()
    cluster.run_until_stable(timeout=30)
    before = dict(cluster.network.stats.bytes_by_type)
    for i in range(10):
        cluster.submit_and_wait(("put", "k", "v" * 4096))
    stats = cluster.network.stats.bytes_by_type
    propose_bytes = stats["Propose"] - before.get("Propose", 0)
    commit_bytes = stats["Commit"] - before.get("Commit", 0)
    assert propose_bytes > commit_bytes * 10


def test_link_latency_override_shapes_delivery():
    sim = Simulator(seed=1)
    net = Network(sim, NetworkConfig(latency=0.001, jitter=0.0))
    times = {}
    for node in (1, 2, 3):
        net.register(node, lambda s, p: None)
    net.register(9, lambda s, p: times.setdefault(s, sim.now))
    net.set_link_latency(1, 9, 0.5)
    net.send(1, 9, "slow")
    net.send(2, 9, "fast")
    sim.run()
    assert times[2] == pytest.approx(0.001)
    assert times[1] == pytest.approx(0.5)
    # Restoring the default brings the link back.
    net.set_link_latency(1, 9, None)
    start = sim.now
    done = []
    net.register(9, lambda s, p: done.append(sim.now))
    net.send(1, 9, "normal")
    sim.run()
    assert done[0] - start == pytest.approx(0.001)


def test_remote_replica_does_not_slow_quorum():
    """With one far-away replica in a 3-peer ensemble, commit latency
    should track the *second fastest* follower, not the slow one —
    quorums wait for a majority, not for everyone."""
    cluster = Cluster(ClusterConfig(n_voters=3, seed=112)).start()
    cluster.run_until_stable(timeout=30)
    leader_id = cluster.leader().peer_id
    followers = [p for p in cluster.config.voters if p != leader_id]
    # Put one follower 50ms away (WAN), keep the other local.
    cluster.network.set_link_latency(leader_id, followers[0], 0.050)
    latencies = []

    def measure():
        t0 = cluster.sim.now
        done = []
        cluster.submit(("put", "k", 1),
                       callback=lambda r, z: done.append(
                           cluster.sim.now - t0))
        cluster.run_until(lambda: done, timeout=10)
        latencies.append(done[0])

    for _ in range(5):
        measure()
    # Commit latency stays LAN-scale (< 10ms), far below the WAN RTT.
    assert max(latencies) < 0.010, latencies