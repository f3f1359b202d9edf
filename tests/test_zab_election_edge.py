"""Election edge cases: staggered starts, mid-round joins, vote flips."""

from repro.harness import Cluster, ClusterConfig
from repro.zab import messages


def test_staggered_boot_converges():
    # Peers start 300ms apart — rounds will disagree and must catch up.
    cluster = Cluster(ClusterConfig(n_voters=5, seed=230))
    for index, peer_id in enumerate(sorted(cluster.peers)):
        cluster.sim.schedule(
            index * 0.3, cluster.peers[peer_id].start
        )
    cluster.run(0.95)  # three of five are up: quorum can already form
    cluster.run_until_stable(timeout=30)
    assert cluster.leader() is not None


def test_last_peer_with_best_log_joins_after_quorum_decided():
    # A quorum elects among peers with empty logs; the best-log peer
    # arrives late.  It must NOT disturb the established leader (its
    # history was never committed — FLE freshness is an optimisation).
    cluster = Cluster(ClusterConfig(n_voters=3, seed=231))
    for peer_id in (1, 2):
        cluster.storages[peer_id].epochs.set_accepted_epoch(1)
    cluster.storages[3].epochs.set_accepted_epoch(1)
    cluster.storages[3].epochs.set_current_epoch(1)
    for peer_id in (1, 2):
        cluster.peers[peer_id].start()
    cluster.run_until(
        lambda: any(
            peer.is_established_leader
            for peer in cluster.peers.values()
            if peer_id in (1, 2)
        ),
        timeout=30,
    )
    first_leader = cluster.leader()
    cluster.peers[3].start()
    cluster.run_until_stable(timeout=30)
    assert cluster.leader() is not None
    # Peer 3 either joined as follower of the existing leader or forced
    # a round with itself as leader; both are legal — but the ensemble
    # must be stable and consistent.
    cluster.submit_and_wait(("put", "k", 1))
    cluster.run(0.5)
    cluster.assert_properties()
    assert first_leader is not None


def test_two_node_ensemble_elects_and_survives():
    cluster = Cluster(ClusterConfig(n_voters=2, seed=232)).start()
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "k", 1))
    # Either crash removes quorum (majority of 2 is 2).
    cluster.crash(cluster.leader().peer_id)
    cluster.run(2.0)
    assert cluster.leader() is None
    for peer_id, peer in cluster.peers.items():
        if peer.crashed:
            cluster.recover(peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "k", 2))
    cluster.assert_properties()


def test_simultaneous_leader_and_follower_crash():
    cluster = Cluster(ClusterConfig(n_voters=5, seed=233)).start()
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "k", 1))
    leader_id = cluster.leader().peer_id
    follower_id = next(
        peer_id for peer_id, peer in cluster.peers.items()
        if peer.is_active_follower
    )
    cluster.crash(leader_id)
    cluster.crash(follower_id)
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "k", 2))
    cluster.run(0.5)
    cluster.assert_properties()


def test_thirteen_peer_ensemble_like_the_paper():
    # The paper's largest configuration.
    cluster = Cluster(ClusterConfig(n_voters=13, seed=234)).start()
    cluster.run_until_stable(timeout=60)
    for i in range(10):
        cluster.submit_and_wait(("incr", "x", 1))
    # Six followers (minority) may die without stalling anything.
    crashed = 0
    for peer_id, peer in list(cluster.peers.items()):
        if peer.is_active_follower and crashed < 6:
            cluster.crash(peer_id)
            crashed += 1
    for i in range(10):
        cluster.submit_and_wait(("incr", "x", 1))
    assert cluster.leader().sm.read(("get", "x")) == 20
    cluster.assert_properties()


def test_role_changes_recorded():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=235)).start()
    cluster.run_until_stable(timeout=30)
    peer = cluster.leader()
    states = [state for _t, state in peer.role_changes]
    assert states[0] == messages.LOOKING
    assert states[-1] == messages.LEADING
