"""Unit tests for the cluster harness and fault scheduling."""

import pytest

from repro.checker import Trace
from repro.common.errors import ConfigError
from repro.harness import (
    ActionSchedule,
    Cluster,
    ClusterConfig,
    replay_schedule,
)
from repro.harness.replay import stabilise_under_load
from repro.harness.schedule import KINDS, Action, apply_action


def test_checker_trace_via_cluster_config():
    trace = Trace()
    cluster = Cluster(ClusterConfig(n_voters=3, seed=68,
                                    checker_trace=trace))
    assert cluster.trace is trace


def test_cluster_takes_one_cluster_config_and_nothing_else():
    with pytest.raises(TypeError, match="ClusterConfig"):
        Cluster(3)
    with pytest.raises(TypeError, match="ClusterConfig"):
        Cluster(None)
    with pytest.raises(TypeError):
        Cluster(ClusterConfig(), seed=1)
    with pytest.raises(TypeError):
        Cluster()


def test_describe_marks_crashes_and_leader():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=60)).start()
    cluster.run_until_stable(timeout=30)
    cluster.crash(1)
    text = cluster.describe()
    assert "1:CRASHED" in text
    assert "*" in text


def test_run_until_stable_times_out_without_quorum():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=61))
    cluster.peers[1].start()  # only a minority boots
    with pytest.raises(TimeoutError):
        cluster.run_until_stable(timeout=2.0)


def test_submit_without_leader_raises():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=62))
    with pytest.raises(ConfigError):
        cluster.submit(("put", "k", 1))


def test_shared_disk_mode_contends():
    dedicated = Cluster(ClusterConfig(n_voters=3, seed=63, disk="model"))
    shared = Cluster(ClusterConfig(n_voters=3, seed=63, disk="shared"))
    assert (
        dedicated.storages[1].log._disk
        is not dedicated.storages[2].log._disk
    )
    assert shared.storages[1].log._disk is shared.storages[2].log._disk


def test_shared_disk_cannot_be_slowed_for_one_peer():
    # Slowing the one shared device per peer compounded (two slow_disk
    # calls gave 400x) and restoring left it slow for ever.
    cluster = Cluster(ClusterConfig(n_voters=3, seed=63, disk="shared"))
    device = cluster.storages[1].log._disk
    with pytest.raises(ConfigError, match="no disk model"):
        cluster.slow_disk(1)
    for peer_id in (1, 2, 1, 2):
        for kind in ("slow_disk", "restore_disk"):
            assert apply_action(cluster, Action(0.0, kind, peer_id)) is None
    assert device.fsync_latency == ClusterConfig().fsync_latency


@pytest.mark.parametrize("kind, target", [
    ("crash", 9), ("torn_write", 9), ("partition", [[1, 9]]),
    ("partition_oneway", [9, 1]), ("clock_skew", [9, 2.0]),
])
def test_replay_rejects_a_schedule_naming_a_missing_peer(kind, target):
    schedule = ActionSchedule(meta={"n_voters": 3}).add(0.5, kind, target)
    with pytest.raises(ConfigError, match="names peer 9"):
        replay_schedule(schedule, ClusterConfig(n_observers=1))


def test_replay_accepts_a_schedule_naming_an_observer():
    schedule = ActionSchedule(meta={"n_voters": 3}).add(0.5, "crash", 4)
    assert replay_schedule(schedule, ClusterConfig(n_observers=1)).passed


def test_install_records_events():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=64))
    log = ActionSchedule().add(1.0, "crash", 1).add(2.0, "recover", 1) \
        .install(cluster)
    cluster.start()
    cluster.run_until_stable(timeout=30)
    cluster.run_until(lambda: cluster.sim.now >= 2.5, timeout=10)
    assert log == [(1.0, "crash peer 1"), (2.0, "recover peer 1")]
    assert not cluster.peers[1].crashed


def test_install_crash_leader_and_follower():
    cluster = Cluster(ClusterConfig(n_voters=5, seed=65))
    log = (
        ActionSchedule()
        .add(1.0, "crash_follower")
        .add(2.0, "crash_leader")
        .add(3.0, "recover_all")
        .install(cluster)
    )
    cluster.start()
    cluster.run_until_stable(timeout=30)
    cluster.run_until(lambda: cluster.sim.now >= 2.5, timeout=30)
    assert sum(peer.crashed for peer in cluster.peers.values()) == 2
    cluster.run_until(lambda: cluster.sim.now >= 3.5, timeout=30)
    kinds = [text.split(" peer")[0] for _t, text in log]
    assert kinds == ["crash follower", "crash leader", "recover"]
    assert not any(peer.crashed for peer in cluster.peers.values())
    cluster.run_until_stable(timeout=30)


def test_install_partition_and_heal():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=66))
    log = (
        ActionSchedule()
        .add(1.0, "partition", [[1], [2, 3]])
        .add(2.0, "heal")
        .install(cluster)
    )
    cluster.start()
    cluster.run_until_stable(timeout=30)
    cluster.run_until(lambda: cluster.sim.now >= 1.5, timeout=10)
    assert cluster.network.partitions.active()
    cluster.run_until(lambda: cluster.sim.now >= 2.5, timeout=10)
    assert not cluster.network.partitions.active()
    cluster.run_until_stable(timeout=30)
    assert [text for _t, text in log] == [
        "partition [[1], [2, 3]]", "heal",
    ]


def test_install_offsets_by_start_and_skips_noops():
    schedule = (
        ActionSchedule()
        .add(1.0, "crash", 1)
        .add(1.5, "crash", 1)       # already down: no-op, no log entry
        .add(2.0, "recover", 1)
        .add(3.0, "partition", [[2]])
        .add(4.0, "heal")
    )
    cluster = Cluster(ClusterConfig(n_voters=3, seed=69)).start()
    cluster.run_until_stable(timeout=30)
    start = cluster.sim.now
    log = schedule.install(cluster, start=start)
    cluster.run(4.5)
    assert log == [
        (start + 1.0, "crash peer 1"), (start + 2.0, "recover peer 1"),
        (start + 3.0, "partition [[2]]"), (start + 4.0, "heal"),
    ]
    cluster.run_until_stable(timeout=30)


def test_install_fires_every_kind_like_replay():
    # Times sit off the 20 ms load-tick grid so no action ties with a
    # tick.
    schedule = (
        ActionSchedule(meta={"seed": 70, "n_voters": 3})
        .add(0.307, "submit", 5)
        .add(0.507, "snapshot")
        .add(0.707, "slow_disk", 2)
        .add(0.907, "crash_follower")
        .add(1.107, "recover_all")
        .add(1.507, "snapshot", 1)
        .add(1.707, "compact_log", 1)
        .add(1.907, "restore_disk", 2)
        .add(2.107, "partition_oneway", [1, 2])
        .add(2.307, "restore_links")
        .add(2.507, "clock_skew", [3, 4.0])
        .add(2.707, "crash", 3)
        .add(3.007, "recover", 3)
        .add(3.207, "partition", [[1]])
        .add(3.407, "heal")
        .add(3.607, "crash_leader")
        .add(3.807, "torn_write", 3)
    )
    assert {action.kind for action in schedule} == set(KINDS)
    config = ClusterConfig(disk="model")
    replayed = replay_schedule(schedule, config)
    assert replayed.passed, replayed.violations

    cluster = Cluster(config.replace(seed=70)).start()
    start = stabilise_under_load(cluster, 30.0, 0.02)
    log = schedule.install(cluster, start=start)
    cluster.run(5.0)
    assert len(log) == len(schedule)
    assert [text for _t, text in log] == [
        text for _t, text in replayed.fired
    ]
    for (fired_at, _text), action in zip(log, schedule):
        assert fired_at == start + action.time


def test_states_excludes_crashed_and_unbuilt():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=67)).start()
    cluster.run_until_stable(timeout=30)
    cluster.crash(1)
    assert 1 not in cluster.states()
