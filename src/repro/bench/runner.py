"""End-to-end experiment runner.

``run_broadcast_bench`` builds a cluster from one ``ClusterConfig``,
drives it with a workload for a fixed stretch of simulated time, and
returns a :class:`BenchResult` with throughput, latency percentiles,
and traffic accounting.  Every experiment of
:mod:`repro.bench.experiments` bottoms out here (or in a small variation
of it).
"""

from repro.bench.workloads import (
    AggregateOpenLoopDriver,
    ClosedLoopDriver,
    OpenLoopDriver,
)
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
                 net_stats, timeline, check_report=None, metrics=None,
                 workload=None):
        self.params = params
        self.throughput = throughput      # committed ops / simulated second
        self.latency = latency            # summary dict (mean/p50/p95/p99)
        self.duration = duration
        self.committed = committed
        self.net_stats = net_stats
        self.timeline = timeline
        self.check_report = check_report
        self.metrics = metrics            # repro.obs registry snapshot
        # AggregateOpenLoopDriver.results() dict (per-class breakdowns)
        # when the run used session-class load, else None.
        self.workload = workload

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
    open_loop_rate=None,
    check_properties=True,
    session_classes=None,
):
    """Run one saturated-broadcast (or open-loop) measurement on a
    cluster built from *config* (a
    :class:`~repro.harness.config.ClusterConfig`: ensemble shape, seed,
    link, disk model, dissemination topology, tracer, ZabConfig knobs).

    Returns a :class:`BenchResult`.  ``open_loop_rate`` switches from the
    closed-loop saturation driver to Poisson arrivals at the given rate.
    ``session_classes`` (a list of
    :class:`~repro.bench.workloads.SessionClass`) switches to the
    aggregate population driver instead: offered load comes from
    arrival-rate models, the result carries per-class breakdowns in
    ``result.workload``, and per-class rates/latencies join the bench
    metrics.  The result always carries a
    :class:`repro.obs.MetricsRegistry` snapshot (commit counters, drop
    reasons, streaming commit-latency percentiles): of
    ``config.metrics`` when set, else of a fresh registry.
    """
    registry = config.metrics
    if registry is None:
        registry = MetricsRegistry()
    cluster = Cluster(config.replace(metrics=registry))
    cluster.start()
    cluster.run_until_stable(timeout=60.0)

    op_factory = default_op_factory(op_size)
    if session_classes is not None:
        driver = AggregateOpenLoopDriver(
            cluster, session_classes, warmup=warmup,
        )
    elif open_loop_rate is not None:
        driver = OpenLoopDriver(
            cluster, open_loop_rate, op_factory, op_size, warmup=warmup,
        )
    else:
        driver = ClosedLoopDriver(
            cluster, outstanding, op_factory, op_size, warmup=warmup,
        )
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

    report = require_properties(cluster) if check_properties else None

    leader = cluster.leader()
    params = {
        "n_voters": config.n_voters,
        "op_size": op_size,
        "outstanding": outstanding,
        "open_loop_rate": open_loop_rate,
        "bandwidth_bps": cluster.network.config.bandwidth_bps,
        "disk": config.disk,
        "seed": config.seed,
        "dissemination": config.dissemination,
        "leader": leader.peer_id if leader is not None else None,
    }
    workload = None
    if session_classes is not None:
        params["session_classes"] = [
            cls.to_json() for cls in session_classes
        ]
        workload = driver.results()
        workload["class_metrics"] = driver.class_metrics(measured_window)
    return BenchResult(
        params=params,
        throughput=throughput,
        latency=driver.latency.snapshot(),
        duration=measured_window,
        committed=committed,
        net_stats=cluster.network.stats.snapshot(),
        timeline=driver.timeline,
        check_report=report,
        metrics=registry.snapshot(),
        workload=workload,
    )
