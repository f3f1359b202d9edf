"""Canned operational scenarios.

Reusable building blocks for tests, benchmarks, and the CLI: each
function drives a cluster through a realistic operational pattern and
returns what happened.  They assume a started, stable cluster.
"""

from repro.common.errors import ReproError


class ScenarioError(ReproError):
    """A scenario could not complete (e.g. stability never returned)."""


def crash_recovery_timeline(n_voters=5, seed=3, rate=2000, tracer=None,
                            metrics=None, schedule=None, duration=8.0,
                            bandwidth_bps=25e6, op_size=1024,
                            monitor=None):
    """The E3 anatomy run: load, follower crash, leader crash, recovery.

    Builds its own cluster (optionally instrumented with *tracer* /
    *metrics* from :mod:`repro.obs`), drives it with an open-loop
    workload and installs *schedule* (an
    :class:`~repro.harness.schedule.ActionSchedule` timed from
    stability; default: crash a follower at 2.0, the leader at 4.0,
    recover everyone at 6.0; pass an empty one for a fault-free run).
    This is the scenario behind ``repro trace`` and experiment E3: with
    the default schedule its event stream contains the
    full leader-crash anatomy — fault, election, sync strategy,
    resumed commits.  Pass a :class:`~repro.obs.health.HealthMonitor`
    as *monitor* to watch the run live (it is attached before the
    cluster boots, so window 0 starts at t=0).  Returns
    ``(cluster, driver, fault_log)`` — the log is
    :meth:`ActionSchedule.install`'s ``[(time, description)]`` list.
    """
    from repro.bench.runner import default_op_factory
    from repro.bench.workloads import OpenLoopDriver
    from repro.harness.cluster import Cluster
    from repro.harness.config import ClusterConfig
    from repro.harness.schedule import ActionSchedule
    from repro.net import NetworkConfig

    cluster = Cluster(ClusterConfig(
        n_voters=n_voters, seed=seed,
        net=NetworkConfig(bandwidth_bps=bandwidth_bps, latency=0.0002),
        tracer=tracer, metrics=metrics,
    ))
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


def slow_fsync_gray_failure(n_voters=5, seed=11, rate=2000, tracer=None,
                            metrics=None, monitor=None, victim=None,
                            slow_at=2.0, restore_at=6.0,
                            slow_factor=20.0, duration=8.0,
                            bandwidth_bps=25e6, op_size=1024,
                            fsync_latency=0.0005):
    """Gray-failure drill: one follower's log device silently degrades.

    Every peer gets its own disk model; under load, the victim
    follower's fsync latency is multiplied by *slow_factor* at
    *slow_at* and restored at *restore_at* (pass ``None`` to leave it
    degraded).  No checker property ever trips — commits keep flowing
    through the healthy quorum — but the victim's ACK lag and fsync
    wait balloon, which is the signature the health monitor's
    straggler and disk-stall detectors must attribute to the victim
    and *only* the victim.  The victim defaults to the lowest-id
    follower of the elected leader (seed-determined).  Returns
    ``(cluster, driver, victim)``.
    """
    from repro.bench.runner import default_op_factory
    from repro.bench.workloads import OpenLoopDriver
    from repro.harness.cluster import Cluster
    from repro.harness.config import ClusterConfig
    from repro.net import NetworkConfig

    cluster = Cluster(ClusterConfig(
        n_voters=n_voters, seed=seed,
        net=NetworkConfig(bandwidth_bps=bandwidth_bps, latency=0.0002),
        disk="model", fsync_latency=fsync_latency,
        tracer=tracer, metrics=metrics,
    ))
    if monitor is not None:
        monitor.attach(cluster)
    cluster.start()
    leader = cluster.run_until_stable(timeout=60.0)
    if victim is None:
        victim = min(
            peer_id for peer_id in cluster.config.voters
            if peer_id != leader.peer_id
        )
    driver = OpenLoopDriver(
        cluster, rate, default_op_factory(op_size), op_size, warmup=0.0,
    )
    t0 = cluster.sim.now
    cluster.sim.schedule_at(
        t0 + slow_at, cluster.slow_disk, victim, slow_factor
    )
    if restore_at is not None:
        cluster.sim.schedule_at(
            t0 + restore_at, cluster.restore_disk, victim
        )
    driver.start()
    cluster.run(duration)
    driver.stop()
    cluster.run(0.5)   # let in-flight operations finish
    return cluster, driver, victim


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
