"""Operational-scenario suite: the tier-1 smoke slice.

Every schedule family in :mod:`repro.harness.opscenarios` gets one fast
end-to-end run here (replay + checker + health + loss audit), plus unit
coverage of the cluster seams the schedules drive: operator snapshots,
retention compaction, one-way partitions, link restore, and clock skew.
The multi-seed sweeps, topology cross-products, and explorer interplay
live in ``tests/integration/test_ops_scenarios.py`` under ``-m ops``.
"""

import importlib.util
import io
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.harness import Cluster, ClusterConfig
from repro.harness.buggy import SEEDED_BUGS
from repro.harness.opscenarios import OPS_SCENARIOS, stable_leader_id
from repro.harness.replay import committed_txn_loss, replay_schedule
from repro.harness.schedule import (
    ADVERSARY_STREAM,
    OPS_ADVERSARY_STREAM,
    PARTITION_ADVERSARY_STREAM,
    PROFILES,
    ActionSchedule,
)
from repro.obs.trace import Tracer, dump_jsonl

ALL_FAMILIES = sorted(OPS_SCENARIOS)


def ops_run(schedule, config=None, **kwargs):
    """An operational scenario's replay with health and loss verdicts."""
    return replay_schedule(schedule, config, health=True, **kwargs)


# ---------------------------------------------------------------------------
# Schedule generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_schedules_are_json_round_trippable(family):
    schedule = OPS_SCENARIOS[family](seed=3)
    clone = ActionSchedule.loads(schedule.dumps())
    assert clone.meta == schedule.meta
    assert clone.meta["scenario"] == family
    assert [
        (action.time, action.kind, action.target) for action in clone
    ] == [
        (action.time, action.kind, action.target) for action in schedule
    ]


def test_rolling_restart_bounces_leader_last():
    leader = stable_leader_id(ClusterConfig(n_voters=3, seed=0))
    schedule = OPS_SCENARIOS["rolling-restart"](seed=0)
    crashes = [a.target for a in schedule if a.kind == "crash"]
    assert sorted(crashes) == [1, 2, 3]
    assert crashes[-1] == leader
    # Every crash has a matching later recover.
    recovers = {a.target: a.time for a in schedule if a.kind == "recover"}
    for action in schedule:
        if action.kind == "crash":
            assert recovers[action.target] > action.time


def test_generate_ops_is_deterministic_and_separate_from_legacy():
    first = ActionSchedule.generate_ops(7, steps=8)
    second = ActionSchedule.generate_ops(7, steps=8)
    assert first.dumps() == second.dumps()
    assert first.meta["profile"] == "ops"
    # The legacy adversary's decision stream must stay pinned: adding
    # the ops stream cannot perturb schedules older seeds generated.
    legacy = ActionSchedule.generate(7, steps=8)
    assert legacy.dumps() == ActionSchedule.generate(7, steps=8).dumps()
    ops_kinds = {a.kind for a in first}
    assert not ops_kinds - {
        "crash", "recover", "snapshot", "compact_log",
        "partition_oneway", "restore_links", "clock_skew", "heal",
    }
    # The partition profile is a third, equally deterministic stream.
    partition = ActionSchedule.generate_partitions(7, steps=8)
    assert partition.dumps() == (
        ActionSchedule.generate_partitions(7, steps=8).dumps()
    )
    assert partition.meta["profile"] == "partition"
    assert {a.kind for a in partition} == {"partition", "heal"}
    assert len({
        ADVERSARY_STREAM, OPS_ADVERSARY_STREAM, PARTITION_ADVERSARY_STREAM,
    }) == 3
    assert partition != first and partition != legacy
    assert set(PROFILES) == {"default", "ops", "partition"}


# ---------------------------------------------------------------------------
# One fast end-to-end run per family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_family_smoke_run_passes(family):
    result = ops_run(OPS_SCENARIOS[family](seed=0))
    assert result.error is None
    assert result.passed, result.violations
    assert result.lost == []
    assert result.health.healthy, result.health.summary()


def test_rolling_restart_five_voters_loses_nothing():
    result = ops_run(
        OPS_SCENARIOS["rolling-restart"](seed=141, n_voters=5, gap=1.0)
    )
    assert result.passed, (result.violations, result.lost)
    assert len(result.fired) == 10    # every voter down and back


def test_flapping_a_follower_is_survivable_and_needs_no_election():
    leader = stable_leader_id(ClusterConfig(n_voters=5, seed=142))
    follower = leader % 5 + 1
    result = ops_run(OPS_SCENARIOS["flapping-partition"](
        seed=142, n_voters=5, victim=follower, flaps=4, period=0.3,
    ))
    assert result.passed, (result.violations, result.lost)
    assert result.cluster.leader().peer_id == leader


def test_flapping_the_leader_forces_reelection():
    result = ops_run(
        OPS_SCENARIOS["flapping-partition"](seed=143, n_voters=5)
    )
    assert result.passed, (result.violations, result.lost)
    assert len(result.epochs) > 1


def test_scenario_results_are_deterministic():
    schedule = OPS_SCENARIOS["snapshot-under-load"](seed=2)
    first = ops_run(schedule)
    second = ops_run(OPS_SCENARIOS["snapshot-under-load"](seed=2))
    assert first.deliveries == second.deliveries
    assert first.health.summary() == second.health.summary()


def test_snapshot_under_load_actually_compacts():
    result = ops_run(
        OPS_SCENARIOS["snapshot-under-load"](seed=0, retain_snapshots=1)
    )
    assert result.passed
    cluster = result.cluster
    for peer in cluster.peers.values():
        assert len(peer.storage.snapshots) == 1
        boundary = peer.storage.log.purged_through()
        assert boundary is not None
        assert boundary <= peer.storage.snapshots.latest().last_zxid


def _validator():
    """``scripts/validate_trace.py`` (not a package), imported by path."""
    path = Path(__file__).resolve().parent.parent / "scripts" / (
        "validate_trace.py"
    )
    spec = importlib.util.spec_from_file_location("validate_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_kinds_are_schema_valid_in_traces():
    tracer = Tracer()
    result = replay_schedule(
        OPS_SCENARIOS["snapshot-under-load"](seed=1),
        ClusterConfig(tracer=tracer),
    )
    assert result.passed, result
    handle = io.StringIO()
    dump_jsonl(tracer.events, handle)
    handle.seek(0)
    counts = _validator().validate(handle)
    assert counts.get("snapshot.save") and counts.get("compact.purge")


def test_seeded_snapshot_bug_fails_and_ships_a_black_box(tmp_path):
    bug = SEEDED_BUGS["snapshot_skip"]
    result = ops_run(
        bug.canonical_schedule(), ClusterConfig(leader_factory=bug.factory),
        recorder_dir=str(tmp_path),
    )
    assert not result.passed
    flight = tmp_path / "flight.jsonl"
    assert flight.stat().st_size > 0
    with open(flight, encoding="utf-8") as handle:
        counts = _validator().validate(handle)
    assert counts.get("recorder.dump") == 1


# ---------------------------------------------------------------------------
# Cluster seams the schedules drive
# ---------------------------------------------------------------------------

def stable_cluster(seed=0):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=seed)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_snapshot_now_and_compact_logs_seams():
    cluster = stable_cluster()
    for i in range(5):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    taken = cluster.snapshot_now()
    assert sorted(taken) == [1, 2, 3]
    cluster.run(0.2)
    cluster.snapshot_now()
    reports = cluster.compact_logs(retain_snapshots=1)
    for peer_id, report in reports.items():
        peer = cluster.peers[peer_id]
        assert len(peer.storage.snapshots) == 1
        if report.purged_to is not None:
            assert peer.storage.log.purged_through() == report.purged_to


def test_compact_logs_skips_crashed_peers():
    cluster = stable_cluster()
    cluster.submit_and_wait(("put", "a", 1))
    cluster.snapshot_now()
    cluster.crash(1)
    reports = cluster.compact_logs(retain_snapshots=1)
    assert 1 not in reports
    assert set(reports) <= {2, 3}


def test_partition_oneway_is_asymmetric_and_restorable():
    cluster = stable_cluster()
    cluster.partition_oneway(1, 2)
    assert cluster.network.partitions.has_cut_links()
    assert (1, 2) in cluster.network.partitions.cut_links()
    assert (2, 1) not in cluster.network.partitions.cut_links()
    assert cluster.restore_links() is True
    assert not cluster.network.partitions.has_cut_links()
    # Restoring with nothing cut is a trace-silent no-op.
    assert cluster.restore_links() is False


def test_clock_skew_seam_validates_and_clears():
    cluster = stable_cluster()
    with pytest.raises(ConfigError):
        cluster.set_clock_skew(1, 0.0)
    cluster.set_clock_skew(1, 4.0)
    assert cluster.peers[1].clock_skew == 4.0
    assert cluster.clear_clock_skews() is True
    assert cluster.peers[1].clock_skew == 1.0
    assert cluster.clear_clock_skews() is False


def test_committed_txn_loss_flags_a_stale_live_peer():
    cluster = stable_cluster()
    for i in range(5):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.run(0.5)
    assert committed_txn_loss(cluster) == []
    # Forge staleness: rewind one live peer's frontier.
    from repro.zab.zxid import Zxid

    cluster.peers[1].last_committed = Zxid(1, 1)
    lost = committed_txn_loss(cluster)
    assert lost and all(peer_id == 1 for peer_id, _z in lost)
    # Crashed peers are excused.
    cluster.crash(1)
    assert committed_txn_loss(cluster) == []


# ---------------------------------------------------------------------------
# Heavier slices of the same families (ops tier)
# ---------------------------------------------------------------------------

@pytest.mark.ops
@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_family_multi_seed(family, seed):
    result = ops_run(OPS_SCENARIOS[family](seed=seed))
    assert result.passed, (family, seed, result.violations,
                           result.lost)
    assert result.health.healthy


@pytest.mark.ops
def test_flapping_partition_oneway_variant():
    result = ops_run(
        OPS_SCENARIOS["flapping-partition"](seed=0, oneway=True)
    )
    assert result.passed
    assert not result.cluster.network.partitions.has_cut_links()
