"""Operational scenarios: the cluster run the way production runs it.

The fuzzy-snapshot and recovery machinery of the paper exists in
:mod:`repro.storage` and :mod:`repro.zab.sync`, but implementation is
not operation.  This module *operates* the cluster: scheduled fuzzy
snapshots and log compaction under live client load, rolling
restarts/upgrades (leader last), flapping and one-way partitions, and
clock-skewed elections — each expressed as a plain, replayable
:class:`~repro.harness.schedule.ActionSchedule`, so every scenario
flows through the same replay, campaign, explorer, and shrink
machinery as any other fault schedule, and a failing run ships a
flight-recorder black box.

Scenario families (the :data:`OPS_SCENARIOS` catalog):

``snapshot-under-load``
    Periodic operator snapshots with retention-driven compaction while
    the open-loop load keeps committing — the fuzzy-snapshot race the
    paper's design argument is about.
``retention-churn``
    Snapshots, compactions, and crash/recover cycles interleaved, so
    restarted peers must recover solely from a snapshot plus the
    post-compaction log suffix.
``rolling-restart``
    Every voter bounced in turn, followers first and the leader last
    (the production upgrade order), under load.
``flapping-partition``
    A victim repeatedly partitioned and healed (``oneway=True`` cuts
    only its outbound links — the half-open failure mode).
``clock-skew-election``
    A follower's election timers stretched, then the leader killed:
    elections must still converge with heterogeneous timeouts.

``replay_schedule(schedule, health=True)`` replays a schedule with
tracing on (wire events off), judges the trace with a
:class:`~repro.obs.health.HealthMonitor`, and runs an explicit
committed-transaction-loss audit on top of the property checker.
"""

from repro.harness.cluster import Cluster
from repro.harness.config import ClusterConfig
from repro.harness.schedule import ActionSchedule


def stable_leader_id(config, timeout=30.0):
    """Which peer leads once a fresh cluster built from *config* settles.

    Deterministic — the simulator is — so schedule generators can plan
    "leader last" or "skew a follower" without a live cluster in hand.
    Boots and discards a throwaway ensemble.
    """
    cluster = Cluster(config).start()
    cluster.run_until_stable(timeout=timeout)
    return cluster.leader().peer_id


def _shaped(config, seed, n_voters):
    """*config* (default ``ClusterConfig()``) at this seed and size."""
    return (config or ClusterConfig()).replace(
        n_voters=n_voters, seed=seed
    )


def _base_meta(scenario, seed, n_voters, op_interval, config=None):
    meta = {
        "scenario": scenario,
        "seed": seed,
        "n_voters": n_voters,
        "op_interval": op_interval,
    }
    # Replay-relevant cluster knobs ride in meta so the schedule alone
    # reproduces the run (replay_schedule reads them back out).
    if config is not None:
        meta["dissemination"] = config.dissemination
    return meta


def snapshot_under_load_schedule(seed=0, n_voters=3, snapshots=4,
                                 interval=0.5, retain_snapshots=2,
                                 op_interval=0.02):
    """Periodic fuzzy snapshots + compaction under open-loop load.

    Every *interval* seconds each live peer snapshots; half an interval
    later the retention policy compacts (keep the newest
    *retain_snapshots*, purge logs through the oldest survivor).
    """
    schedule = ActionSchedule(meta=dict(
        _base_meta("snapshot-under-load", seed, n_voters, op_interval),
        retain_snapshots=retain_snapshots,
    ))
    for i in range(snapshots):
        t = (i + 1) * interval
        schedule.add(t, "snapshot")
        schedule.add(t + interval / 2.0, "compact_log", retain_snapshots)
    return schedule


def retention_churn_schedule(seed=0, n_voters=3, cycles=3, interval=0.6,
                             retain_snapshots=1, op_interval=0.02):
    """Snapshot/compact churn interleaved with crash/recover cycles.

    Each cycle snapshots, compacts down to *retain_snapshots*, crashes
    a voter, and recovers it — so the restarted peer's sync must work
    from a snapshot plus the compacted log's suffix alone.  Victims
    rotate through the voter set (the leader included, whoever it is).
    """
    schedule = ActionSchedule(meta=dict(
        _base_meta("retention-churn", seed, n_voters, op_interval),
        retain_snapshots=retain_snapshots,
    ))
    for i in range(cycles):
        t = (i + 1) * 2.0 * interval
        victim = (i % n_voters) + 1
        schedule.add(t, "snapshot")
        schedule.add(t + 0.2 * interval, "compact_log", retain_snapshots)
        schedule.add(t + 0.4 * interval, "crash", victim)
        schedule.add(t + 1.4 * interval, "recover", victim)
    return schedule


def rolling_restart_schedule(seed=0, n_voters=3, dwell=0.5, gap=1.5,
                             op_interval=0.02, leader_id=None,
                             config=None):
    """Bounce every voter in turn — followers first, leader last.

    Each voter is crashed for *dwell* seconds, then the cluster gets
    *gap* seconds to re-absorb it before the next bounce.  *leader_id*
    (who goes last) defaults to :func:`stable_leader_id` of *config*
    (default ``ClusterConfig()``) at this (n_voters, seed), matching
    who actually leads when the schedule replays under that config.
    """
    if leader_id is None:
        leader_id = stable_leader_id(_shaped(config, seed, n_voters))
    order = [p for p in range(1, n_voters + 1) if p != leader_id]
    order.append(leader_id)
    schedule = ActionSchedule(meta=dict(
        _base_meta("rolling-restart", seed, n_voters, op_interval,
                   config),
        leader_id=leader_id, dwell=dwell, gap=gap,
    ))
    t = gap
    for victim in order:
        schedule.add(t, "crash", victim)
        schedule.add(t + dwell, "recover", victim)
        t += dwell + gap
    return schedule


def flapping_partition_schedule(seed=0, n_voters=3, victim=None, flaps=3,
                                period=0.4, oneway=False, op_interval=0.02,
                                config=None):
    """A victim's connectivity flaps — fully, or outbound-only.

    From 0.5 s on, each of the *flaps* cycles cuts the victim off from
    the other voters (with *oneway*, one ``partition_oneway`` per
    voter), dwells *period*, restores its links, and dwells again; a
    closing ``heal`` (or ``restore_links``) marks the end of the last
    dwell.  The victim defaults to the stable leader — flapping the
    leader forces repeated re-elections, the worst case for the
    availability SLO.
    """
    if victim is None:
        victim = stable_leader_id(_shaped(config, seed, n_voters))
    schedule = ActionSchedule(meta=dict(
        _base_meta("flapping-partition", seed, n_voters, op_interval,
                   config),
        victim=victim, oneway=oneway,
    ))
    others = [pid for pid in range(1, n_voters + 1) if pid != victim]
    restore = "restore_links" if oneway else "heal"
    for i in range(flaps):
        start = 0.5 + 2.0 * i * period
        if oneway:
            for other in others:
                schedule.add(start, "partition_oneway", [victim, other])
        else:
            schedule.add(start, "partition", [[victim], others])
        schedule.add(start + period, restore)
    schedule.add(0.5 + 2.0 * flaps * period, restore)
    return schedule


def clock_skew_election_schedule(seed=0, n_voters=3, skew=4.0,
                                 op_interval=0.02, config=None):
    """Skew a follower's election clock, then kill the leader.

    The skewed follower's notification resends and finalize waits run
    *skew* times slower; the election must still converge on the
    remaining sane-clock majority, and the recovered ex-leader must
    rejoin.  The skew is lifted mid-schedule so the final quiesce has
    nothing left to clean.
    """
    leader_id = stable_leader_id(_shaped(config, seed, n_voters))
    slow = (leader_id % n_voters) + 1  # some voter that is not the leader
    schedule = ActionSchedule(meta=dict(
        _base_meta("clock-skew-election", seed, n_voters, op_interval,
                   config),
        leader_id=leader_id, skewed=slow, skew=skew,
    ))
    schedule.add(0.25, "clock_skew", [slow, skew])
    schedule.add(0.5, "crash_leader")
    schedule.add(2.5, "recover_all")
    schedule.add(3.0, "clock_skew", [slow, 1.0])
    return schedule


#: Scenario catalog: name -> schedule generator (seed=..., n_voters=...).
OPS_SCENARIOS = {
    "snapshot-under-load": snapshot_under_load_schedule,
    "retention-churn": retention_churn_schedule,
    "rolling-restart": rolling_restart_schedule,
    "flapping-partition": flapping_partition_schedule,
    "clock-skew-election": clock_skew_election_schedule,
}
