"""End-to-end experiment runner.

``run_broadcast_bench`` builds a cluster from one ``ClusterConfig``,
drives it with a closed loop of outstanding puts or an open loop of
Poisson puts at a fixed rate (an arrival that finds no leader is counted
as rejected, never retried), optionally under a fault schedule, for a
fixed stretch of simulated time, and returns a :class:`BenchResult`
with throughput, latency percentiles, and traffic accounting.  Every
bench-shaped experiment of :mod:`repro.bench.experiments`, E3's failure
timeline, and ``repro bench``/``trace``/``profile``/``health`` run
through it.
"""

from repro.bench.workloads import ClosedLoopDriver, OpenLoopDriver
from repro.harness.cluster import Cluster
from repro.net import NetworkConfig
from repro.obs import MetricsRegistry

#: The evaluation's link: a 200 Mb/s (25 MB/s) NIC per node, 0.2 ms
#: one-way latency.  The measured experiment tables and ``repro
#: trace``/``profile``/``health`` build their ``ClusterConfig`` on it.
EVAL_LINK = NetworkConfig(bandwidth_bps=25e6)


class BenchResult:
    """One experiment data point."""

    def __init__(self, params, throughput, latency, duration, committed,
                 submitted, started_at, net_stats, timeline, fault_log,
                 check_report, metrics):
        self.params = params
        self.throughput = throughput      # committed ops / simulated second
        self.latency = latency            # summary dict (mean/p50/p95/p99)
        self.duration = duration
        self.committed = committed        # commits after the warm-up
        self.submitted = submitted        # ops the driver got proposed
        self.started_at = started_at      # sim time the load started
        self.net_stats = net_stats
        self.timeline = timeline          # commits per bucket, from t=0
        # ActionSchedule.install's [(time, description)] of fired faults.
        self.fault_log = fault_log
        self.check_report = check_report
        self.metrics = metrics            # repro.obs registry snapshot

    def __repr__(self):
        return "<BenchResult %.0f ops/s %r>" % (self.throughput, self.params)


def default_op_factory(value_bytes):
    """KV put workload with a fixed value size (spread over 64 keys)."""
    payload = "v" * value_bytes

    def factory(index):
        return ("put", "key-%d" % (index % 64), payload)

    return factory


def require_properties(cluster):
    """``cluster.check_properties()``, raising on any violation: the one
    verdict every cluster-running experiment passes through (an explicit
    raise, because a bare ``assert`` is gone under ``python -O``)."""
    report = cluster.check_properties()
    if not report.ok:
        raise AssertionError(
            "benchmark run violated broadcast properties: %r" % report
        )
    return report


def run_broadcast_bench(
    config,
    op_size=1024,
    outstanding=64,
    duration=3.0,
    warmup=0.5,
    rate=None,
    schedule=None,
):
    """Boot a cluster built from *config* (a
    :class:`~repro.harness.config.ClusterConfig`: ensemble shape, seed,
    link, disk model, dissemination topology, tracer, ZabConfig knobs),
    drive it with client load for ``warmup + duration`` simulated
    seconds after stability, drain for 0.5 s, and return a
    :class:`BenchResult`; raises unless the history passes the checker.

    The load is closed-loop by default: ``outstanding`` puts of
    ``op_size`` bytes always in flight.  A *rate* switches to the open
    loop (:class:`~repro.bench.workloads.OpenLoopDriver`): Poisson puts
    of ``op_size`` bytes at *rate* per simulated second, whatever the
    cluster keeps up with; an arrival that finds no leader is counted
    as rejected and not retried.  *schedule* (an
    :class:`~repro.harness.schedule.ActionSchedule`) is installed at
    stability, timed from there, and its fired actions come back as
    ``result.fault_log``.  The result always carries a
    :class:`repro.obs.MetricsRegistry` snapshot (commit counters, drop
    reasons, streaming commit-latency percentiles, ``sim.now`` at the
    end of the run): of ``config.metrics`` when set, else of a fresh
    registry.
    """
    registry = config.metrics
    if registry is None:
        registry = MetricsRegistry()
    cluster = Cluster(config.replace(metrics=registry)).start()
    cluster.run_until_stable(timeout=60.0)

    if rate is not None:
        driver = OpenLoopDriver(cluster, rate, op_size, warmup=warmup)
    else:
        driver = ClosedLoopDriver(
            cluster, outstanding, default_op_factory(op_size), op_size,
            warmup=warmup,
        )
    fault_log = []
    if schedule is not None:
        fault_log = schedule.install(cluster, start=cluster.sim.now)
    driver.start()
    cluster.run(duration + warmup)
    driver.stop()
    # Let in-flight operations finish so the window measure is clean.
    cluster.run(0.5)

    measured_window = duration
    committed = driver.latency.count
    throughput = committed / measured_window if measured_window > 0 else 0.0
    registry.histogram("bench.commit_latency_s").merge(driver.latency)
    registry.counter("bench.committed").inc(committed)
    registry.counter("bench.submitted").inc(driver.submitted)

    report = require_properties(cluster)

    leader = cluster.leader()
    params = {
        "n_voters": config.n_voters,
        "op_size": op_size,
        "outstanding": outstanding,
        "bandwidth_bps": cluster.network.config.bandwidth_bps,
        "disk": config.disk,
        "seed": config.seed,
        "dissemination": config.dissemination,
        "leader": leader.peer_id if leader is not None else None,
    }
    if rate is not None:
        params["rate"] = rate
    return BenchResult(
        params=params,
        throughput=throughput,
        latency=driver.latency.snapshot(),
        duration=measured_window,
        committed=committed,
        submitted=driver.submitted,
        started_at=driver.started_at,
        net_stats=cluster.network.stats.snapshot(),
        timeline=driver.timeline,
        fault_log=fault_log,
        check_report=report,
        metrics=registry.snapshot(),
    )
