"""Canned operational scenarios.

Reusable building blocks for tests, benchmarks, and the CLI: each
function drives a cluster through a realistic operational pattern and
returns what happened.  They assume a started, stable cluster.
"""

from repro.common.errors import ReproError


class ScenarioError(ReproError):
    """A scenario could not complete (e.g. stability never returned)."""


def crash_recovery_timeline(config, rate=2000, schedule=None, duration=8.0,
                            op_size=1024, monitor=None):
    """The E3 anatomy run: load, follower crash, leader crash, recovery.

    Builds a cluster from *config* (a
    :class:`~repro.harness.config.ClusterConfig`; instrument it with its
    ``tracer`` / ``metrics`` fields), drives it with an open-loop
    workload and installs *schedule* (an
    :class:`~repro.harness.schedule.ActionSchedule` timed from
    stability; default: crash a follower at 2.0, the leader at 4.0,
    recover everyone at 6.0; pass an empty one for a fault-free run).
    This is the scenario behind ``repro trace`` and experiment E3: with
    the default schedule its event stream contains the
    full leader-crash anatomy — fault, election, sync strategy,
    resumed commits.  The gray-failure health drill is the same run on
    a ``disk="model"`` config with a ``slow_disk``/``restore_disk``
    schedule.  Pass a :class:`~repro.obs.health.HealthMonitor`
    as *monitor* to watch the run live (it is attached before the
    cluster boots, so window 0 starts at t=0).  Returns
    ``(cluster, driver, fault_log)`` — the log is
    :meth:`ActionSchedule.install`'s ``[(time, description)]`` list.
    """
    from repro.bench.runner import default_op_factory
    from repro.bench.workloads import OpenLoopDriver
    from repro.harness.cluster import Cluster
    from repro.harness.schedule import ActionSchedule

    cluster = Cluster(config)
    if monitor is not None:
        monitor.attach(cluster)
    cluster.start()
    cluster.run_until_stable(timeout=60.0)
    driver = OpenLoopDriver(
        cluster, rate, default_op_factory(op_size), op_size, warmup=0.0,
    )
    if schedule is None:
        schedule = (
            ActionSchedule()
            .add(2.0, "crash_follower")
            .add(4.0, "crash_leader")
            .add(6.0, "recover_all")
        )
    fault_log = schedule.install(cluster, start=cluster.sim.now)
    driver.start()
    cluster.run(duration)
    driver.stop()
    cluster.run(0.5)   # let in-flight operations finish
    return cluster, driver, fault_log


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
