"""Tests for the canned operational scenarios."""

from repro.harness import Cluster, ClusterConfig
from repro.harness.scenarios import leader_churn, measure_recovery_gap


def stable_cluster(n=3, seed=140, **kwargs):
    cluster = Cluster(ClusterConfig(n_voters=n, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_leader_churn_epochs_strictly_increase():
    cluster = stable_cluster(n=5, seed=144)
    epochs = leader_churn(cluster, rounds=4)
    assert len(epochs) == 4
    assert all(a < b for a, b in zip(epochs, epochs[1:])), epochs
    cluster.run(1.0)
    for state in cluster.states().values():
        assert state["churn"] == 4
    cluster.assert_properties()


def test_measure_recovery_gap_is_bounded_by_timeouts():
    cluster = stable_cluster(n=5, seed=145)
    cluster.submit_and_wait(("put", "warm", 1))
    gap, new_leader = measure_recovery_gap(cluster)
    # Detection needs sync_limit ticks (0.2s); election + sync add a few
    # hundred ms at most with default timing.
    assert 0.1 < gap < 3.0, gap
    assert new_leader != cluster.peers  # sanity: an id, not the dict
    cluster.assert_properties()
