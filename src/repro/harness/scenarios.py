"""Canned operational scenarios.

Reusable building blocks for tests, benchmarks, and the CLI: the fault
schedule of the crash-recovery drill, and a probe that measures the
write-unavailability gap of a leader crash on a started, stable
cluster.
"""

from repro.common.errors import ReproError
from repro.harness.schedule import ActionSchedule


class ScenarioError(ReproError):
    """A scenario could not complete (e.g. stability never returned)."""


def crash_recovery_schedule():
    """The crash-recovery drill behind ``repro trace`` and ``repro
    health``: crash a follower at 2.0 s, the leader at 4.0 s, recover
    everyone at 6.0 s (times from stability).  Run it with
    ``run_broadcast_bench(..., warmup=0, schedule=...)``; its event
    stream then holds the full leader-crash anatomy — fault, election,
    sync strategy, resumed commits."""
    return (
        ActionSchedule()
        .add(2.0, "crash_follower")
        .add(4.0, "crash_leader")
        .add(6.0, "recover_all")
    )


def measure_recovery_gap(cluster, rate_probe_interval=0.01, timeout=60.0):
    """Crash the current leader and measure the write-unavailability gap.

    Returns (gap_seconds, new_leader_id): the time from the crash until
    a submitted write first commits again.
    """
    leader = cluster.leader()
    if leader is None:
        raise ScenarioError("no leader")
    crash_time = cluster.sim.now
    cluster.crash(leader.peer_id)
    committed = []

    def probe():
        if committed:
            return
        current = cluster.leader()
        if current is not None:
            try:
                current.propose_op(
                    ("put", "recovery-probe", cluster.sim.now),
                    callback=lambda r, z: committed.append(
                        cluster.sim.now
                    ),
                )
            except Exception:
                pass
        cluster.sim.schedule(rate_probe_interval, probe)

    probe()
    ok = cluster.run_until(lambda: committed, timeout=timeout)
    if not ok:
        raise ScenarioError("service did not recover")
    return committed[0] - crash_time, cluster.leader().peer_id
