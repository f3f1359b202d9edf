"""Tests for the canned operational scenarios."""

from repro.harness import ActionSchedule, Cluster, ClusterConfig, replay_schedule
from repro.harness.scenarios import measure_recovery_gap


def stable_cluster(n=3, seed=140, **kwargs):
    cluster = Cluster(ClusterConfig(n_voters=n, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_leader_churn_epochs_strictly_increase():
    # Four rounds of "crash the leader, then bring everyone back" under
    # the replay engine's steady write load: every new leader must open
    # a strictly later epoch, and the ensemble must end up in agreement.
    schedule = ActionSchedule(meta={"n_voters": 5, "seed": 144})
    for round_ in range(4):
        schedule.add(1.0 + 2.0 * round_, "crash_leader")
        schedule.add(2.0 + 2.0 * round_, "recover_all")
    result = replay_schedule(schedule)
    fired = [what.split(" peer")[0] for _t, what in result.fired]
    assert fired == ["crash leader", "recover"] * 4, result.fired
    epochs = [event.epoch for event in result.cluster.trace.broadcasts]
    leaders = [epoch for index, epoch in enumerate(epochs)
               if index == 0 or epoch != epochs[index - 1]]
    assert len(leaders) == 5, leaders
    assert all(a < b for a, b in zip(leaders, leaders[1:])), leaders
    assert result.ok, result.violations
    assert result.converged


def test_measure_recovery_gap_is_bounded_by_timeouts():
    cluster = stable_cluster(n=5, seed=145)
    cluster.submit_and_wait(("put", "warm", 1))
    gap, new_leader = measure_recovery_gap(cluster)
    # Detection needs sync_limit ticks (0.2s); election + sync add a few
    # hundred ms at most with default timing.
    assert 0.1 < gap < 3.0, gap
    assert new_leader != cluster.peers  # sanity: an id, not the dict
    cluster.assert_properties()
