"""Tests for the workload drivers and the bench runner."""

import pytest

from repro.bench import ClosedLoopDriver, OpenLoopDriver
from repro.bench.runner import (
    EVAL_LINK,
    default_op_factory,
    run_broadcast_bench,
)
from repro.harness import Cluster, ClusterConfig
from repro.net.network import Network
from repro.zab import messages


def stable_cluster(seed=130, **kwargs):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_closed_loop_keeps_window_full():
    cluster = stable_cluster()
    driver = ClosedLoopDriver(
        cluster, outstanding=8, op_factory=default_op_factory(64),
        op_size=64,
    ).start()
    cluster.run(1.0)
    driver.stop()
    assert driver.committed > 50
    # Completions equal submissions minus what is still in flight.
    assert driver.submitted - driver.committed <= 8


def test_closed_loop_survives_leader_crash():
    cluster = stable_cluster(seed=131)
    driver = ClosedLoopDriver(
        cluster, outstanding=4, op_factory=default_op_factory(64),
        op_size=64,
    ).start()
    cluster.run(0.5)
    mid = driver.committed
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    driver.stop()
    assert driver.committed > mid  # progress resumed after failover


def test_open_loop_hits_target_rate():
    cluster = stable_cluster(seed=132)
    driver = OpenLoopDriver(cluster, rate=500, op_size=64).start()
    cluster.run(2.0)
    driver.stop()
    achieved = driver.committed / 2.0
    assert 350 < achieved < 650  # Poisson noise around 500
    assert driver.rejected == 0  # a stable leader takes every arrival
    assert driver.submitted >= driver.committed


def test_each_post_warmup_commit_is_recorded_exactly_once():
    cluster = stable_cluster(seed=135)
    driver = ClosedLoopDriver(
        cluster, outstanding=2, op_factory=default_op_factory(64),
        op_size=64, warmup=0.5,
    ).start()
    cluster.run(0.5)
    warmup_commits = driver.committed
    assert warmup_commits > 0
    assert driver.latency.count == 0      # nothing recorded in warm-up
    cluster.run(1.0)
    driver.stop()
    cluster.run(0.5)
    # One recorder, one observation per commit: a second recording path
    # (or a double observe) would push count past the commits seen.
    assert driver.latency.count == driver.committed - warmup_commits
    assert driver.timeline.total() == driver.committed


def test_runner_registers_the_drivers_histogram():
    result = run_broadcast_bench(
        ClusterConfig(seed=136, net=EVAL_LINK),
        op_size=256, outstanding=8, duration=0.3, warmup=0.1,
    )
    sketch = result.metrics["histograms"]["bench.commit_latency_s"]
    assert sketch == result.latency
    assert sketch["count"] == result.committed


def test_runner_end_to_end_smoke(monkeypatch):
    # PROPOSEs leave bare or in a frame with the rest of a leader event's
    # stream: count them as the leader hands them to the fabric.
    proposes = []
    send = Network.send

    def counting_send(self, src, dst, payload):
        members = getattr(payload, "members", (payload,))
        proposes.extend(m for m in members if type(m) is messages.Propose)
        return send(self, src, dst, payload)

    monkeypatch.setattr(Network, "send", counting_send)
    result = run_broadcast_bench(
        ClusterConfig(seed=136, net=EVAL_LINK),
        op_size=256, outstanding=8, duration=0.5, warmup=0.1,
    )
    assert result.throughput > 0
    assert result.committed > 0
    assert result.check_report.ok
    assert result.latency["p50"] > 0
    assert len(proposes) >= result.committed
    assert "n_voters" in result.params


def test_runner_open_loop_mode():
    result = run_broadcast_bench(
        ClusterConfig(seed=137, net=EVAL_LINK),
        duration=0.5, warmup=0.1, rate=300,
    )
    assert result.params["rate"] == 300
    assert result.params["op_size"] == 1024
    # The Poisson schedule is a function of the seed alone, pinned.
    assert (result.submitted, result.committed, result.throughput) == (
        170, 143, 286.0)
    assert result.latency["p50"] == 0.000506700458747528
    assert result.latency["p99"] == 0.0005927678690217226


def test_open_loop_rejects_a_rate_that_is_not_finite_and_positive():
    cluster = stable_cluster(seed=143)
    for rate in (0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            OpenLoopDriver(cluster, rate)


def test_open_loop_is_deterministic():
    def run():
        cluster = stable_cluster(seed=142)
        driver = OpenLoopDriver(cluster, rate=300, op_size=32).start()
        cluster.run(1.0)
        driver.stop()
        return (driver.submitted, driver.committed,
                driver.latency.snapshot(), driver.timeline.series())

    assert run() == run()


def test_aggregate_driver_counts_rejections_without_leader():
    cluster = stable_cluster(seed=144)
    cluster.crash(cluster.leader().peer_id)
    driver = OpenLoopDriver(cluster, rate=200).start()
    cluster.run(0.2)
    driver.stop()
    assert driver.rejected > 0
