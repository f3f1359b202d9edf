"""Tests for the workload drivers and the bench runner."""

import pytest

from repro.bench import (
    AggregateOpenLoopDriver,
    ClosedLoopDriver,
    SessionClass,
)
from repro.bench.runner import (
    EVAL_LINK,
    default_op_factory,
    run_broadcast_bench,
)
from repro.bench.workloads import open_loop
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
    driver = AggregateOpenLoopDriver(
        cluster, open_loop(rate=500, op_size=64),
    ).start()
    cluster.run(2.0)
    driver.stop()
    achieved = driver.committed / 2.0
    assert 350 < achieved < 650  # Poisson noise around 500
    assert driver.submitted == driver.results()["classes"]["open-loop"][
        "submitted"]          # write-only: every arrival is a proposal


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
        duration=0.5, warmup=0.1, session_classes=open_loop(300),
    )
    assert 0 < result.throughput < 600
    assert result.params["session_classes"] == [{
        "name": "open-loop", "sessions": 1, "rate_per_session": 300,
        "read_fraction": 0.0, "arrival": "poisson", "op_size": 1024,
        "keys": 64,
    }]


# ---------------------------------------------------------------------------
# Aggregate session-class load
# ---------------------------------------------------------------------------

def test_session_class_validates_inputs():
    with pytest.raises(ValueError):
        SessionClass("bad", sessions=0, rate_per_session=1.0)
    with pytest.raises(ValueError):
        SessionClass("bad", sessions=1, rate_per_session=0)
    with pytest.raises(ValueError):
        SessionClass("bad", sessions=1, rate_per_session=1.0,
                     read_fraction=1.5)
    with pytest.raises(ValueError):
        SessionClass("bad", sessions=1, rate_per_session=1.0,
                     arrival="bursty")
    # An op_size the class could not sample fails here, not at the
    # first arrival in the middle of a simulation.
    for op_size in (("zipf", 1, 2), ("uniform", 9, 3), ("uniform", 0, 3),
                    ("uniform", 1), -5, 0, 2.5, True, "big"):
        with pytest.raises(ValueError):
            SessionClass("bad", sessions=1, rate_per_session=1.0,
                         op_size=op_size)
    SessionClass("ok", sessions=1, rate_per_session=1.0,
                 op_size=("uniform", 3, 3))


def test_aggregate_rate_is_population_times_per_session():
    cls = SessionClass("web", sessions=1_000_000,
                       rate_per_session=0.0004)
    assert cls.aggregate_rate == pytest.approx(400.0)


def test_aggregate_driver_simulates_millions_of_sessions():
    cluster = stable_cluster(seed=140)
    driver = AggregateOpenLoopDriver(cluster, [SessionClass(
        "web", sessions=2_000_000, rate_per_session=0.0002,
        read_fraction=0.5, op_size=64,
    )]).start()
    cluster.run(1.0)
    driver.stop()
    assert driver.sessions == 2_000_000
    results = driver.results()
    web = results["classes"]["web"]
    # ~400 arrivals/s split evenly between reads and commits.
    assert web["committed"] > 100
    assert web["reads"] > 100
    assert web["latency"]["p50"] > 0


@pytest.mark.parametrize("sessions", [1, 1024, 2**20, 10**6])
def test_aggregate_driver_cost_is_independent_of_population(sessions):
    # Sessions are a rate parameter, not objects: the same 400 ops/s
    # spread over one session or a million fires the same kernel events
    # and submits and commits the same ops, on any machine.  (The class
    # name labels the arrival PRNG stream, so it is part of the pin.)
    cluster = stable_cluster(seed=1)
    fired = cluster.sim.events_fired
    driver = AggregateOpenLoopDriver(cluster, [SessionClass(
        "population", sessions=sessions, rate_per_session=400.0 / sessions,
        read_fraction=0.5, op_size=64,
    )]).start()
    cluster.run(1.0)
    driver.stop()
    assert (cluster.sim.events_fired - fired, driver.submitted,
            driver.committed) == (1779, 423, 202)


def test_aggregate_driver_per_class_breakdowns_are_independent():
    cluster = stable_cluster(seed=141)
    classes = [
        SessionClass("readers", sessions=1000, rate_per_session=0.2,
                     read_fraction=1.0),
        SessionClass("writers", sessions=100, rate_per_session=1.0,
                     read_fraction=0.0, op_size=("uniform", 32, 256)),
    ]
    driver = AggregateOpenLoopDriver(cluster, classes).start()
    cluster.run(1.0)
    driver.stop()
    results = driver.results()
    assert results["classes"]["readers"]["committed"] == 0
    assert results["classes"]["readers"]["reads"] > 100
    assert results["classes"]["writers"]["reads"] == 0
    assert results["classes"]["writers"]["committed"] > 50


def test_aggregate_driver_is_deterministic():
    def run():
        cluster = stable_cluster(seed=142)
        driver = AggregateOpenLoopDriver(cluster, [SessionClass(
            "mix", sessions=10_000, rate_per_session=0.03,
            read_fraction=0.25, op_size=("uniform", 16, 64),
        )]).start()
        cluster.run(1.0)
        driver.stop()
        return driver.results()

    assert run() == run()


def test_aggregate_driver_rejects_duplicate_class_names():
    cluster = stable_cluster(seed=143)
    cls = SessionClass("dup", sessions=10, rate_per_session=1.0)
    with pytest.raises(ValueError):
        AggregateOpenLoopDriver(cluster, [cls, cls])
    with pytest.raises(ValueError):
        AggregateOpenLoopDriver(cluster, [])


def test_aggregate_driver_counts_rejections_without_leader():
    cluster = stable_cluster(seed=144)
    cluster.crash(cluster.leader().peer_id)
    driver = AggregateOpenLoopDriver(cluster, [SessionClass(
        "storm", sessions=1000, rate_per_session=0.2,
    )]).start()
    cluster.run(0.2)
    driver.stop()
    assert driver.rejected > 0


def test_runner_session_class_mode_reports_per_class_metrics():
    from repro.bench.report import bench_metrics

    result = run_broadcast_bench(
        ClusterConfig(seed=145, net=EVAL_LINK),
        duration=0.5, warmup=0.1,
        session_classes=[
            SessionClass("web", sessions=500_000,
                         rate_per_session=0.0008, read_fraction=0.5),
            SessionClass("batch", sessions=10, rate_per_session=10.0,
                         arrival="fixed", op_size=512),
        ],
    )
    assert result.workload is not None
    assert result.workload["sessions"] == 500_010
    assert set(result.workload["classes"]) == {"web", "batch"}
    assert result.params["session_classes"][0]["name"] == "web"
    metrics = bench_metrics(result)
    assert metrics["workload.sessions"] == 500_010
    assert metrics["workload.class.web.committed"] > 0
    assert metrics["workload.class.batch.write_ops"] > 0
    assert metrics["workload.class.web.latency.p50_ms"] > 0
