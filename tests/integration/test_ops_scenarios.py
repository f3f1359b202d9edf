"""Operational-scenario integration battery (``-m ops``).

The heavy end of the suite in :mod:`repro.harness.opscenarios`: every
family across seeds and dissemination topologies, the paper-level
guarantees asserted explicitly —

- **rolling restart**: zero committed-transaction loss, every
  recovery-dip detector clears, replicas byte-identical per topology
  and the whole run replay-deterministic;
- **retention churn**: restarted peers recover solely from a snapshot
  plus the compacted log suffix (the full log is gone by construction);
- **flapping / one-way partitions and clock-skewed elections**: the
  cluster reconverges and the health monitor signs off;
- **snapshot-vs-commit races**: the bounded explorer with operator
  actions enabled finds no violation in stock Zab.
"""

import pytest

from repro.harness import ClusterConfig
from repro.harness.opscenarios import (
    OPS_SCENARIOS,
    retention_churn_schedule,
    rolling_restart_schedule,
)
from repro.harness.replay import replay_schedule
from repro.mc import explore_schedules
from repro.zab.dissemination import DISSEMINATION_TOPOLOGIES
from repro.zab.zxid import Zxid

pytestmark = pytest.mark.ops


def ops_run(schedule):
    return replay_schedule(schedule, health=True)


def converged_states(cluster):
    return {
        tuple(sorted(state.items()))
        for state in cluster.states().values()
    }


@pytest.mark.parametrize("topology", DISSEMINATION_TOPOLOGIES)
def test_rolling_restart_zero_loss_across_topologies(topology):
    schedule = rolling_restart_schedule(
        seed=0, config=ClusterConfig(dissemination=topology)
    )
    assert schedule.meta["dissemination"] == topology
    result = ops_run(schedule)
    assert result.passed, result.violations
    assert result.lost == [], "committed txns lost under %s" % topology
    # All replicas end byte-identical.
    assert len(converged_states(result.cluster)) == 1
    # Bounded recovery dips: every detector that fired also cleared.
    assert result.health.healthy
    assert result.health.active() == []
    # And the whole run is replay-deterministic, health included.
    again = ops_run(rolling_restart_schedule(
        seed=0, config=ClusterConfig(dissemination=topology)
    ))
    assert again.deliveries == result.deliveries
    assert again.health.summary() == result.health.summary()


def test_rolling_restart_dips_are_bounded_not_absent():
    # The monitor must actually see the bounces: a rolling restart that
    # produces zero dip/leader firings would mean the scenario is not
    # exercising anything.
    result = ops_run(rolling_restart_schedule(seed=0))
    firings = result.health.firings
    assert firings, "no detector ever fired during a rolling restart"
    assert all(f["clear"] is not None for f in firings), firings


def test_retention_churn_recovers_from_snapshot_plus_suffix():
    schedule = retention_churn_schedule(seed=0, retain_snapshots=1)
    result = ops_run(schedule)
    assert result.passed, (result.violations, result.lost)
    cluster = result.cluster
    for peer in cluster.peers.values():
        storage = peer.storage
        # The full log is gone: replaying from (1, 1) is impossible, so
        # the recoveries that happened used a snapshot + suffix.
        boundary = storage.log.purged_through()
        assert boundary is not None and boundary > Zxid(1, 1)
        snapshot = storage.snapshots.latest()
        assert snapshot is not None
        assert boundary <= snapshot.last_zxid
        first = storage.log.first_durable()
        if first is not None:
            assert first > boundary
    assert len(converged_states(cluster)) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("oneway", [False, True])
def test_flapping_partition_reconverges(seed, oneway):
    schedule = OPS_SCENARIOS["flapping-partition"](seed=seed, oneway=oneway)
    result = ops_run(schedule)
    assert result.passed, (seed, oneway, result.violations)
    cluster = result.cluster
    assert not cluster.network.partitions.has_cut_links()
    assert cluster.leader() is not None
    assert result.health.healthy


@pytest.mark.parametrize("skew", [0.25, 4.0])
def test_clock_skewed_election_converges(skew):
    schedule = OPS_SCENARIOS["clock-skew-election"](seed=0, skew=skew)
    result = ops_run(schedule)
    assert result.passed, result.violations
    cluster = result.cluster
    # The skew was lifted mid-schedule; nothing lingers.
    assert all(p.clock_skew == 1.0 for p in cluster.peers.values())
    assert cluster.leader() is not None


def test_ops_campaign_profile_passes_across_seeds():
    from repro.bench.campaign import run_adversarial_campaign

    outcomes = run_adversarial_campaign(
        range(5), steps=8, with_health=True, profile="ops"
    )
    for outcome in outcomes:
        assert outcome.passed, (outcome.seed, outcome.violations,
                                outcome.error)
        assert outcome.health.healthy


def test_explorer_finds_no_snapshot_commit_race_in_stock_zab():
    # Bounded interleaving over snapshot-vs-commit races: with operator
    # actions in the explorer's alphabet, stock Zab must stay clean.
    result = explore_schedules(
        peers=3, depth=6, max_schedules=400, ops_actions=True,
    )
    assert not result.violations, [
        sorted({p for p, _z in v.signature}) for v in result.violations
    ]
    # The search genuinely branched over operator actions.
    assert result.runs > 1
